#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "obs/trace.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void pin_role(Role role) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  const std::size_t slot = 1 + static_cast<std::size_t>(role);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double supported_percentile(std::size_t n) {
  if (n < 40) return 0.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

void LogHistogram::add(double us) {
  const auto ns = static_cast<std::uint64_t>(std::max(1.0, std::round(us * 1e3)));
  const int exponent = 63 - __builtin_clzll(ns);
  const std::size_t index =
      exponent < 5 ? ns
                   : static_cast<std::size_t>(exponent) * kSub + ((ns >> (exponent - 5)) & 31);
  ++buckets_[index];
  ++count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t index = 0; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (seen <= rank) continue;
    if (index < kSub) return static_cast<double>(index) / 1e3;
    const std::size_t exponent = index / kSub;
    const std::uint64_t width = std::uint64_t{1} << (exponent - 5);
    const std::uint64_t lower = (kSub + index % kSub) * width;
    return (static_cast<double>(lower) + static_cast<double>(width) / 2) / 1e3;
  }
  return 0.0;
}

Daemon::Daemon(std::unique_ptr<netcl::sim::SwitchDevice> device,
               netcl::net::SwdOptions options)
    : server_(std::move(device), options) {
  if (server_.valid()) thread_ = std::thread([this] { serve(); });
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void Daemon::serve() {
  pin_role(Role::kDaemon);
  std::uint64_t answered = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    server_.poll_once(10);
    const std::uint64_t wanted = requested_.load(std::memory_order_acquire);
    if (wanted == answered) continue;
    DaemonSnapshot snap;
    snap.wall_ns = now_ns();
    snap.cpu_s = thread_cpu_s();
    snap.packets_received = server_.packets_received;
    snap.recv_syscalls = server_.recv_syscalls;
    snap.packets_shed = server_.packets_shed_policer + server_.packets_shed_queue;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      snapshot_ = snap;
      served_ = wanted;
    }
    answered = wanted;
    cv_.notify_all();
  }
}

DaemonSnapshot Daemon::snapshot() {
  const std::uint64_t ticket = requested_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return served_ >= ticket; });
  return snapshot_;
}

bool write_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                 std::size_t max_per_log) {
  netcl::obs::Tracer tracer;
  std::uint64_t base = UINT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) base = std::min(base, span.start_ns);
  }
  std::int64_t offset = 0;  // span ids are unique across lanes
  int lane = 0;
  for (const SpanLog* log : logs) {
    ++lane;
    const std::vector<Span>& spans = log->spans();
    const std::size_t n = std::min(spans.size(), max_per_log);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& span = spans[i];
      netcl::obs::TraceEvent event;
      event.name = span.name;
      event.category = "perfbench";
      event.ts_us = static_cast<double>(span.start_ns - base) / 1e3;
      event.dur_us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      event.tid = lane;
      event.args = {
          {"span", std::to_string(offset + static_cast<std::int64_t>(i))},
          {"parent", std::to_string(span.parent < 0 ? -1 : offset + span.parent)},
          {"request", std::to_string(span.request)}};
      tracer.record_complete(std::move(event));
    }
    offset += static_cast<std::int64_t>(spans.size());
  }
  return tracer.write(path);
}

}  // namespace perfbench

// Shared pieces of the perfbench driver: run arguments, the result every
// workload returns, clocks, order statistics, the in-process netcl-swd
// daemon with its own serving loop, and the in-memory span log.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/swd_server.hpp"
#include "sim/switch.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test knob: corrupt one checked answer in every N (0 = never).
  std::uint64_t corrupt_every = 0;
  /// Directory the traced run writes its Chrome-trace JSON into.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failed` counts operations whose answer
/// was missing or wrong; `correct` is false only when a whole-run check
/// (a device counter, a deterministic stage count) disagrees.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Answers the self-test corrupted on purpose (each must be in `failed`).
  std::uint64_t injected = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a whole-run check; prints the reason when it fails.
  void check(bool ok, const std::string& what);
};

// --- clocks -------------------------------------------------------------------

/// Steady-clock nanoseconds.
[[nodiscard]] std::uint64_t now_ns();
/// Process CPU time (user + sys, all threads), seconds.
[[nodiscard]] double process_cpu_s();
/// CPU time of the calling thread, seconds.
[[nodiscard]] double thread_cpu_s();
/// The threads of a run, one per role.
enum class Role { kClient, kDaemon, kServer };
/// Pins the calling thread to its role's own CPU: the (role+2)-th CPU the
/// process may use, wrapping, so CPU 0's housekeeping stays out of the way.
/// Unpinned, the scheduler's placement decided whether a wake-up crossed
/// cores, and the unloaded median round trip switched between ~19 and
/// ~30 us from run to run; pinned, it stays within a few percent.
void pin_role(Role role);
/// Peak resident set size of the process, MB.
[[nodiscard]] double peak_rss_mb();

// --- order statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of `values` (sorted in place).
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// The highest percentile with at least ten samples beyond it (the tail a
/// sample of size n supports): 100 * (1 - 10/n), or 0 when n < 40.
[[nodiscard]] double supported_percentile(std::size_t n);

/// Round trips pooled over a whole measurement in fixed memory: 32
/// log-linear buckets per power of two of nanoseconds (under 3.2% relative
/// error), so memory does not grow with the sample count and peak RSS
/// does not step when a faster program collects more samples.
class LogHistogram {
 public:
  void add(double us);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Midpoint of the bucket holding the q-quantile, in µs.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSub = 32;
  std::array<std::uint64_t, 64 * kSub> buckets_{};
  std::uint64_t count_ = 0;
};

// --- the daemon -----------------------------------------------------------------

/// Counters and the serving thread's CPU clock, read on the serving thread
/// itself (SwdServer's counters are plain integers owned by that thread).
struct DaemonSnapshot {
  std::uint64_t wall_ns = 0;
  double cpu_s = 0.0;
  std::uint64_t packets_received = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t packets_shed = 0;
};

/// An in-process netcl-swd: the SwdServer plus a serving thread running the
/// daemon's loop (poll_once until stopped, as SwdServer::run does). Between
/// turns the loop answers snapshot requests.
class Daemon {
 public:
  Daemon(std::unique_ptr<netcl::sim::SwitchDevice> device, netcl::net::SwdOptions options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] bool valid() const { return server_.valid(); }
  [[nodiscard]] netcl::net::SwdServer& server() { return server_; }
  /// Blocks until the serving thread has taken a snapshot.
  [[nodiscard]] DaemonSnapshot snapshot();
  /// Stops and joins the serving thread; the server is then safe to inspect.
  void stop();

 private:
  void serve();

  netcl::net::SwdServer server_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requested_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t served_ = 0;  // guarded by mutex_
  DaemonSnapshot snapshot_;   // guarded by mutex_
  std::thread thread_;        // last: starts after everything it uses
};

// --- spans ----------------------------------------------------------------------

/// One traced interval. `parent` indexes the log (-1 = root); `request` is
/// the request (or compile) the span belongs to.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Spans kept in memory and written once at the end of the run. Recording
/// stops at a fixed capacity (reserved up front, so recording never
/// allocates inside a measured call).
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }
  /// Index of the recorded span, or -1 once the log is full.
  std::int64_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                   std::int64_t parent, std::uint64_t request) {
    if (spans_.size() == spans_.capacity()) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  /// Sets the end of a span opened earlier (no-op for -1).
  void close(std::int64_t index, std::uint64_t end_ns) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Writes the logs as one Chrome-trace JSON file (obs::Tracer's format),
/// one thread lane per log and at most `max_per_log` spans of each. Every
/// event carries its span id, parent span id and request id as args.
bool write_trace(const std::string& path, const std::vector<const SpanLog*>& logs,
                 std::size_t max_per_log);

/// Calls to operator new made by the calling thread so far (alloc_count.cpp).
[[nodiscard]] std::uint64_t thread_allocations();

}  // namespace perfbench

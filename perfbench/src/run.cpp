// The run every workload shares: set-up rounds, the measurement, peak RSS,
// and in the traced run the untraced and traced halves, the live-path
// layers, the layer walk, the compile phases and the trace file.
#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRounds = 9;

void print_figures(const char* label, const Figures& f) {
  std::printf(
      "%s: ops_per_s=%.2f lat_p50_us=%.2f lat_p90_us=%.2f cpu_us_per_op=%.2f "
      "(pooled latencies: p%.3f=%.2f us, n=%zu)\n",
      label, f.ops_per_s, f.lat_p50_us, f.lat_p90_us, f.cpu_us_per_op, f.tail_pct, f.tail_us,
      f.samples);
}

}  // namespace

void PhaseResult::add_daemon(const DaemonSnapshot& before, const DaemonSnapshot& after) {
  daemon_cpu_s += after.cpu_s - before.cpu_s;
  daemon_wall_s += static_cast<double>(after.wall_ns - before.wall_ns) / 1e9;
  daemon_rx += after.packets_received - before.packets_received;
  daemon_rx_calls += after.recv_syscalls - before.recv_syscalls;
  daemon_shed = std::max(daemon_shed, after.packets_shed);
}

PhaseResult& PhaseResult::operator+=(const PhaseResult& o) {
  completed += o.completed;
  seconds += o.seconds;
  cpu_s += o.cpu_s;
  client_cpu_s += o.client_cpu_s;
  messages += o.messages;
  send_batch_ns += o.send_batch_ns;
  tx_packets += o.tx_packets;
  tx_syscalls += o.tx_syscalls;
  daemon_cpu_s += o.daemon_cpu_s;
  daemon_wall_s += o.daemon_wall_s;
  daemon_rx += o.daemon_rx;
  daemon_rx_calls += o.daemon_rx_calls;
  daemon_shed = std::max(daemon_shed, o.daemon_shed);
  return *this;
}

LiveLayers live_layers(const PhaseResult& p) {
  LiveLayers live;
  const double done = static_cast<double>(std::max<std::uint64_t>(p.completed, 1));
  const double messages = static_cast<double>(std::max<std::uint64_t>(p.messages, 1));
  const double rx = static_cast<double>(p.daemon_rx);
  live.send_batch_ns = static_cast<double>(p.send_batch_ns) / messages;
  live.host_cpu_us_per_op = p.client_cpu_s * 1e6 / done;
  live.swd_cpu_us_per_packet = rx > 0 ? p.daemon_cpu_s * 1e6 / rx : 0.0;
  live.swd_utilization = p.daemon_wall_s > 0 ? p.daemon_cpu_s / p.daemon_wall_s : 0.0;
  live.tx_syscalls_per_packet =
      p.tx_packets > 0 ? static_cast<double>(p.tx_syscalls) / static_cast<double>(p.tx_packets)
                       : 0.0;
  live.rx_packets_per_batch =
      p.daemon_rx_calls > 0 ? rx / static_cast<double>(p.daemon_rx_calls) : 0.0;
  live.packets_shed = static_cast<double>(p.daemon_shed);
  return live;
}

void add_live_layers(const LiveLayers& live, Outcome& out) {
  std::printf(
      "live path (traced loaded phase): send_batch %.0f ns/message, client %.2f us CPU/op, "
      "daemon %.2f us CPU/packet at %.0f%% utilization, %.3f tx syscalls/packet, "
      "%.2f rx packets/batch, %.0f shed, list_kernels RPC %.1f us\n",
      live.send_batch_ns, live.host_cpu_us_per_op, live.swd_cpu_us_per_packet,
      100.0 * live.swd_utilization, live.tx_syscalls_per_packet, live.rx_packets_per_batch,
      live.packets_shed, live.control_rpc_us);
  out.add("runtime.send_batch_ns", live.send_batch_ns, "ns");
  out.add("runtime.host_cpu_us_per_op", live.host_cpu_us_per_op, "us");
  out.add("net.swd_cpu_us_per_packet", live.swd_cpu_us_per_packet, "us");
  out.add("net.swd_utilization", live.swd_utilization, "ratio");
  out.add("net.tx_syscalls_per_packet", live.tx_syscalls_per_packet, "count");
  out.add("net.rx_packets_per_batch", live.rx_packets_per_batch, "count");
  out.add("net.packets_shed", live.packets_shed, "count");
  out.add("net.control_rpc_us", live.control_rpc_us, "us");
}

double control_rpc_us(netcl::runtime::DeviceConnection& control, int rounds) {
  std::vector<double> samples;
  std::vector<netcl::net::KernelInfo> kernels;
  for (int i = 0; i < rounds; ++i) {
    kernels.clear();
    const std::uint64_t t0 = now_ns();
    if (control.list_kernels_e(kernels)) return -1.0;
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(std::move(samples));
}

Outcome run_workload(const RunArgs& args, Workload& workload) {
  Outcome out;
  std::vector<double> setups;
  auto set_up = [&] {
    const std::uint64_t t0 = now_ns();
    workload.setup(out);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  };
  auto print_setups = [&] {
    std::printf("setup_s: %.4f (median of", median(setups));
    for (double v : setups) std::printf(" %.4f", v);
    std::printf(")\n");
  };
  set_up();

  if (!args.trace) {
    const Figures f = workload.measure(args.seconds, nullptr, out);
    print_figures("end-to-end", f);
    workload.finish(out);
    // The peak of one set-up and its measurement, as one daemon has it:
    // read before the extra set-ups, each of which leaves its threads'
    // profiler and flight-recorder rings behind.
    const double rss_mb = peak_rss_mb();
    for (int i = 1; i < kSetupRounds; ++i) {
      set_up();
      workload.finish(out);
    }
    print_setups();
    out.add("ops_per_s", f.ops_per_s, "1/s");
    out.add("lat_p50_us", f.lat_p50_us, "us");
    out.add("lat_p90_us", f.lat_p90_us, "us");
    out.add("cpu_us_per_op", f.cpu_us_per_op, "us");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", rss_mb, "MB");
    return out;
  }

  print_setups();
  // Half the time untraced, half traced: the difference is what the
  // live-path tracing (a span per request and step, timed send_batch) costs.
  SpanLog live_log(400000);
  const Figures plain = workload.measure(args.seconds / 2, nullptr, out);
  const Figures traced = workload.measure(args.seconds / 2, &live_log, out);
  print_figures("untraced", plain);
  print_figures("traced", traced);
  workload.summarize(live_log);
  std::printf("tracing overhead: ops_per_s %+.1f%%, cpu_us_per_op %+.1f%%\n",
              100.0 * (traced.ops_per_s / plain.ops_per_s - 1.0),
              100.0 * (traced.cpu_us_per_op / plain.cpu_us_per_op - 1.0));
  LiveLayers live = live_layers(traced.loaded);
  live.control_rpc_us = control_rpc_us(workload.control(), 200);
  out.check(live.control_rpc_us > 0, "list_kernels RPC failed");
  workload.finish(out);
  add_live_layers(live, out);

  SpanLog walk_log(200000);
  SpanLog compile_log(20000);
  workload.walk(walk_log, out);
  compile_layers(compile_log, out);
  const std::string path = args.out_dir + "/trace-" + args.workload + ".json";
  if (write_trace(path, {&live_log, &walk_log, &compile_log}, 20000)) {
    std::printf("trace: %s\n", path.c_str());
  }
  return out;
}

}  // namespace perfbench

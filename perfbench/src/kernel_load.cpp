// kernel-load: an empty daemon with the compiler injected; one control
// client cycles the paper's four programs through load -> hot swap ->
// unload over the control plane. One lifecycle is one operation.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "driver/compiler.hpp"
#include "net/udp_transport.hpp"
#include "runtime/host.hpp"
#include "workloads.hpp"

namespace perfbench {

using netcl::net::UdpTransport;
using netcl::runtime::DeviceConnection;
using netcl::runtime::HostRuntime;
using netcl::runtime::Message;
using netcl::sim::ArgValues;

std::vector<LoadProgram> load_programs() {
  std::vector<LoadProgram> programs;
  const netcl::apps::AppSource apps[] = {netcl::apps::calc_source(), netcl::apps::cache_source(),
                                         netcl::apps::agg_source(), netcl::apps::paxos_source()};
  std::uint32_t tenant = 0;
  for (const netcl::apps::AppSource& app : apps) {
    LoadProgram program;
    program.app = app;
    program.tenant = ++tenant;
    program.defines = {app.defines.begin(), app.defines.end()};
    program.defines["COMP"] = tenant;
    programs.push_back(std::move(program));
  }
  return programs;
}

namespace {

constexpr std::uint64_t kProbeTimeoutNs = 1'000'000'000;

struct Env {
  netcl::KernelSpec calc_spec;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<DeviceConnection> control;
  std::unique_ptr<UdpTransport> transport;  // CALC probes
  std::unique_ptr<HostRuntime> host;
};

/// Runs lifecycles and checks each step; the state every cycle shares.
class Cycler {
 public:
  Cycler(Env& env, const RunArgs& args, Outcome& out)
      : env_(env), out_(out), programs_(load_programs()), probes_(args.seed),
        corrupt_every_(args.corrupt_every) {
    stages_.assign(programs_.size(), 0);
    env_.host->on_receive([this](const Message&, ArgValues& a) {
      answer_ = a[3][0];
      answered_ = true;
    });
  }
  Cycler(const Cycler&) = delete;
  Cycler& operator=(const Cycler&) = delete;

  /// One pass over the four programs. Returns the lifecycles that failed.
  std::uint64_t cycle(SpanLog* log) {
    std::uint64_t failed = 0;
    for (std::size_t p = 0; p < programs_.size(); ++p) {
      const std::uint64_t request = lifecycles_++;
      const std::uint64_t start = now_ns();
      const std::int64_t parent = log != nullptr ? log->add("lifecycle", start, 0, -1, request) : -1;
      auto step = [&](const char* name, auto&& call) {
        const std::uint64_t s = now_ns();
        const bool ok = call();
        if (log != nullptr) log->add(name, s, now_ns(), parent, request);
        return ok;
      };
      const LoadProgram& program = programs_[p];
      bool ok = step("kernel.load", [&] { return load(p, false); });
      ok = step("kernel.list", [&] { return listed(program); }) && ok;
      if (p == 0) ok = step("kernel.probe", [&] { return probe(log, parent, request); }) && ok;
      ok = step("kernel.hot_swap", [&] { return load(p, true); }) && ok;
      ok = step("kernel.unload", [&] { return !env_.control->unload_kernel_e(program.tenant); }) &&
           ok;
      if (log != nullptr) log->close(parent, now_ns());
      if (!ok) ++failed;
    }
    return failed;
  }

  std::uint64_t probe_messages = 0;
  std::uint64_t send_batch_ns = 0;

 private:
  bool load(std::size_t p, bool swap) {
    const LoadProgram& program = programs_[p];
    std::uint16_t stages = 0;
    const netcl::runtime::Error err =
        swap ? env_.control->hot_swap_kernel_e(program.tenant, program.app.name,
                                               program.app.source, program.defines, &stages)
             : env_.control->load_kernel_e(program.tenant, program.app.name, program.app.source,
                                           program.defines, &stages);
    if (err) {
      std::printf("%s %s: %s\n", swap ? "hot swap" : "load", program.app.name.c_str(),
                  err.to_string().c_str());
      return false;
    }
    // Compilation is deterministic: a program reports one stage count.
    if (stages_[p] == 0) stages_[p] = stages;
    out_.check(stages == stages_[p], program.app.name + " stage count changed between loads");
    return stages == stages_[p];
  }

  /// After a load the device holds exactly that tenant, serving the
  /// program's computation id.
  bool listed(const LoadProgram& program) {
    kernels_.clear();
    if (env_.control->list_kernels_e(kernels_)) return false;
    return kernels_.size() == 1 && kernels_[0].tenant == program.tenant &&
           kernels_[0].computations == std::vector<std::uint32_t>{program.tenant};
  }

  /// One CALC request over UDP, answered by the freshly loaded kernel.
  bool probe(SpanLog* log, std::int64_t parent, std::uint64_t request) {
    const CalcRequest r = probes_.next();
    batch_.clear();
    ArgValues args = netcl::sim::make_args(env_.calc_spec);
    args[0][0] = r.op;
    args[1][0] = r.a;
    args[2][0] = r.b;
    batch_.push_back({Message(1, 1, static_cast<std::uint8_t>(programs_[0].tenant), 1),
                      std::move(args)});
    answered_ = false;
    const std::uint64_t s = now_ns();
    env_.host->send_batch(batch_);
    const std::uint64_t e = now_ns();
    send_batch_ns += e - s;
    ++probe_messages;
    if (log != nullptr) log->add("runtime.send_batch", s, e, parent, request);
    if (!env_.transport->run_until([this] { return answered_; },
                                   static_cast<double>(kProbeTimeoutNs))) {
      return false;
    }
    std::uint64_t answer = answer_;
    if (corrupt_every_ != 0 && ++probes_answered_ % corrupt_every_ == 0) {
      answer ^= 1;
      ++out_.injected;
    }
    return answer == calc_expected(r);
  }

  Env& env_;
  Outcome& out_;
  std::vector<LoadProgram> programs_;
  std::vector<std::uint16_t> stages_;
  std::vector<netcl::net::KernelInfo> kernels_;
  std::vector<HostRuntime::Outbound> batch_;
  CalcGenerator probes_;
  std::uint64_t corrupt_every_ = 0;
  std::uint64_t probes_answered_ = 0;
  std::uint64_t lifecycles_ = 0;
  std::uint64_t answer_ = 0;
  bool answered_ = false;
};

std::unique_ptr<Env> make_env() {
  auto env = std::make_unique<Env>();
  // The probe host needs CALC's message layout (tenant 1 serves COMP 1).
  const LoadProgram calc = load_programs().front();
  netcl::driver::CompileOptions options;
  options.defines = {calc.defines.begin(), calc.defines.end()};
  netcl::driver::CompileResult compiled = netcl::driver::compile_netcl(calc.app.source, options);
  if (!compiled.ok) throw std::runtime_error("CALC compile failed: " + compiled.errors);
  env->calc_spec = compiled.specs.at(static_cast<int>(calc.tenant));

  netcl::net::SwdOptions swd;
  swd.compiler = netcl::driver::artifact_compiler();
  env->daemon = std::make_unique<Daemon>(std::make_unique<netcl::sim::SwitchDevice>(1), swd);
  if (!env->daemon->valid()) throw std::runtime_error("daemon: " + env->daemon->server().error());
  env->control = std::make_unique<DeviceConnection>("127.0.0.1",
                                                    env->daemon->server().control_port());
  if (!env->control->valid()) throw std::runtime_error("control connect failed");
  UdpTransport::Options transport_options;
  transport_options.peer_port = env->daemon->server().udp_port();
  transport_options.metrics_name = "perfbench.probe";
  env->transport = std::make_unique<UdpTransport>(transport_options);
  if (!env->transport->valid()) throw std::runtime_error("probe: " + env->transport->error());
  env->host = std::make_unique<HostRuntime>(*env->transport, 1);
  env->host->register_spec(static_cast<int>(calc.tenant), env->calc_spec);
  return env;
}

/// The traced lifecycles per program: each step's time, its share of the
/// lifecycle, and what the lifecycle spends outside its steps. Lifecycles
/// run the programs in order, so request % programs is the program.
void print_lifecycles(const SpanLog& log, const std::vector<LoadProgram>& programs) {
  const char* const steps[] = {"kernel.load", "kernel.list", "kernel.probe", "kernel.hot_swap",
                               "kernel.unload"};
  for (std::size_t p = 0; p < programs.size(); ++p) {
    std::vector<double> lifecycle_us;
    std::map<std::string, std::vector<double>> step_us;
    for (const Span& span : log.spans()) {
      if (span.request % programs.size() != p) continue;
      const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      if (span.parent < 0) {
        lifecycle_us.push_back(us);
      } else {
        step_us[span.name].push_back(us);
      }
    }
    if (lifecycle_us.empty()) continue;
    double total = 0.0;
    for (double v : lifecycle_us) total += v;
    std::printf("lifecycle, %s (%zu traced): %.1f us p50\n", programs[p].app.name.c_str(),
                lifecycle_us.size(), median(lifecycle_us));
    std::printf("  %-16s %10s %8s\n", "step", "us_p50", "share");
    double steps_total = 0.0;
    for (const char* step : steps) {
      const auto it = step_us.find(step);
      if (it == step_us.end()) continue;
      double sum = 0.0;
      for (double v : it->second) sum += v;
      steps_total += sum;
      std::printf("  %-16s %10.1f %7.1f%%\n", step, median(it->second), 100.0 * sum / total);
    }
    std::printf("  %-16s %10s %7.1f%%\n", "(lifecycle self)", "",
                100.0 * (total - steps_total) / total);
  }
}

class KernelLoadWorkload final : public Workload {
 public:
  explicit KernelLoadWorkload(const RunArgs& args) : args_(args) {}

  void setup(Outcome& out) override {
    env_ = make_env();
    cycler_ = std::make_unique<Cycler>(*env_, args_, out);
    // Warm-up: one untimed cycle through the four programs.
    out.failed += cycler_->cycle(nullptr);
    out.attempted += 4;
  }

  /// Whole cycles until `seconds` have passed. The latencies are per
  /// cycle: a per-lifecycle median would fall between two programs.
  Figures measure(double seconds, SpanLog* log, Outcome& out) override {
    Figures f;
    PhaseResult& r = f.loaded;
    const DaemonSnapshot before = env_->daemon->snapshot();
    const std::uint64_t tx_packets0 = env_->transport->packets_sent;
    const std::uint64_t tx_syscalls0 = env_->transport->send_syscalls;
    const std::uint64_t probes0 = cycler_->probe_messages;
    const std::uint64_t send_ns0 = cycler_->send_batch_ns;
    const double cpu0 = process_cpu_s();
    const double client_cpu0 = thread_cpu_s();
    std::vector<double> cycle_us;
    const std::uint64_t t0 = now_ns();
    const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::uint64_t t = t0; t < deadline;) {
      out.failed += cycler_->cycle(log);
      out.attempted += 4;
      r.completed += 4;
      const std::uint64_t now = now_ns();
      cycle_us.push_back(static_cast<double>(now - t) / 1e3);
      t = now;
    }
    r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
    r.cpu_s = process_cpu_s() - cpu0;
    r.client_cpu_s = thread_cpu_s() - client_cpu0;
    r.tx_packets = env_->transport->packets_sent - tx_packets0;
    r.tx_syscalls = env_->transport->send_syscalls - tx_syscalls0;
    r.messages = cycler_->probe_messages - probes0;
    r.send_batch_ns = cycler_->send_batch_ns - send_ns0;
    r.add_daemon(before, env_->daemon->snapshot());

    f.ops_per_s = static_cast<double>(r.completed) / r.seconds;
    f.cpu_us_per_op = r.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(r.completed, 1));
    f.lat_p50_us = quantile(cycle_us, 0.5);
    f.lat_p90_us = quantile(cycle_us, 0.9);
    f.samples = cycle_us.size();
    f.tail_pct = supported_percentile(cycle_us.size());
    f.tail_us = f.tail_pct > 0 ? quantile(cycle_us, f.tail_pct / 100) : 0.0;
    return f;
  }

  DeviceConnection& control() override { return *env_->control; }

  /// The lifecycles check each step as they run; nothing is left to check.
  void finish(Outcome& /*out*/) override {
    cycler_.reset();
    env_.reset();
  }

  void summarize(const SpanLog& log) override { print_lifecycles(log, load_programs()); }

  /// The data path kernel-load exercises is its CALC probe sequence.
  void walk(SpanLog& log, Outcome& out) override {
    layer_walk(false, args_.seed, 20000, log, out);
  }

 private:
  const RunArgs& args_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<Cycler> cycler_;
};

}  // namespace

std::unique_ptr<Workload> kernel_load_workload(const RunArgs& args) {
  return std::make_unique<KernelLoadWorkload>(args);
}

}  // namespace perfbench

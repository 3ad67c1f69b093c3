// The traced run's per-layer measurements, taken from the benchmark's own
// code around public calls into each module:
//
//  * layer_walk replays a workload's seeded requests in-process, without
//    sockets, through runtime::pack -> net::serialize_packet ->
//    net::deserialize_packet_e -> spec_for + sim::decode_args ->
//    SwitchDevice::execute -> sim::encode_args -> runtime::unpack, one span
//    per call under one span per request, with heap allocations counted
//    around each call;
//  * compile_layers runs the compile path of each kernel-load program phase
//    by phase (what driver::compile_netcl does inside a kernel load) and
//    times each phase plus SwitchDevice::load_program.
#include <array>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "driver/compiler.hpp"
#include "frontend/sema.hpp"
#include "ir/lower_ast.hpp"
#include "ir/verifier.hpp"
#include "net/wire.hpp"
#include "runtime/device_runtime.hpp"
#include "runtime/message.hpp"
#include "workloads.hpp"

namespace perfbench {

using netcl::KernelSpec;
using netcl::sim::ArgValues;

namespace {

enum Layer { kPack, kSerialize, kDeserialize, kDecode, kExecute, kEncode, kUnpack, kLayers };
constexpr std::array<const char*, kLayers> kLayerNames = {
    "runtime.pack",   "net.serialize",   "net.deserialize", "sim.decode_args",
    "sim.execute",    "sim.encode_args", "runtime.unpack"};

/// Requests replayed before the walk is timed (warm caches, grown buffers).
constexpr std::size_t kWalkWarmup = 200;

struct CacheWalkKey {
  bool populated = false;
  bool valid = false;
  std::uint32_t version = 0;  // newest written
};

}  // namespace

void layer_walk(bool cache, std::uint64_t seed, std::size_t count, SpanLog& log,
                Outcome& out) {
  const netcl::apps::AppSource app =
      cache ? netcl::apps::cache_source() : netcl::apps::calc_source();
  netcl::driver::CompileOptions options;
  options.defines = app.defines;
  netcl::driver::CompileResult compiled = netcl::driver::compile_netcl(app.source, options);
  if (!compiled.ok) throw std::runtime_error(app.name + " compile failed: " + compiled.errors);
  const KernelSpec host_spec = compiled.specs.at(1);
  auto device = netcl::driver::make_device(std::move(compiled), 1);

  CalcGenerator calc_gen(seed);
  CacheGenerator cache_gen(seed);
  std::unordered_map<std::uint64_t, CacheWalkKey> keys;
  if (cache) {
    for (std::uint64_t key : cache_gen.populated()) keys[key] = {true, true, 0};
    const std::string failed = populate_cache(
        seed,
        [&](const std::string& table, std::uint64_t key, std::uint64_t value) {
          return device->lookup_insert(table, key, key, value) ? std::string()
                                                               : "insert into " + table;
        },
        [&](const std::string& name, const std::vector<std::uint64_t>& indices,
            std::uint64_t value) {
          return device->managed_write(name, indices, value) ? std::string() : "write " + name;
        });
    if (!failed.empty()) throw std::runtime_error("layer walk: cache population: " + failed);
  }

  std::array<std::vector<double>, kLayers> layer_ns;
  for (auto& v : layer_ns) v.reserve(count);
  std::array<std::uint64_t, kLayers> allocs{};
  std::vector<double> request_ns;
  request_ns.reserve(count);
  std::vector<std::uint8_t> wire;
  wire.reserve(4096);
  netcl::sim::Packet rx;
  std::vector<std::uint64_t> expected;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t stage_ops = 0;
  std::uint64_t wrong = 0;

  for (std::size_t i = 0; i < kWalkWarmup + count; ++i) {
    const bool timed = i >= kWalkWarmup;
    const std::uint64_t request = i;
    // Inputs are built outside the request span: they are the caller's.
    netcl::runtime::Message message(1, cache ? 2 : 1, 1, 1);
    ArgValues args = netcl::sim::make_args(host_spec);
    CalcRequest calc{};
    CacheRequest query{};
    if (cache) {
      query = cache_gen.next();
      args[0][0] = query.op;
      args[1][0] = query.key;
      if (query.op != netcl::apps::kGetReq) {
        cache_value(query.key, query.version,
                    query.op == netcl::apps::kPutReq ? kKindPut : kKindDel, args[2]);
      }
    } else {
      calc = calc_gen.next();
      args[0][0] = calc.op;
      args[1][0] = calc.a;
      args[2][0] = calc.b;
    }

    const std::uint64_t request_start = now_ns();
    const std::int64_t parent = timed ? log.add("request", request_start, 0, -1, request) : -1;
    auto layer = [&](Layer which, auto&& call) {
      const std::uint64_t a0 = thread_allocations();
      const std::uint64_t s = now_ns();
      call();
      const std::uint64_t e = now_ns();
      const std::uint64_t a1 = thread_allocations();
      if (!timed) return;
      layer_ns[which].push_back(static_cast<double>(e - s));
      allocs[which] += a1 - a0;
      log.add(kLayerNames[which], s, e, parent, request);
    };

    netcl::sim::Packet packet;
    layer(kPack, [&] { packet = netcl::runtime::pack(message, host_spec, args); });
    layer(kSerialize, [&] { netcl::net::serialize_packet(packet, wire); });
    netcl::runtime::Error parsed;
    layer(kDeserialize, [&] { parsed = netcl::net::deserialize_packet_e(wire, rx); });
    const KernelSpec* spec = nullptr;
    ArgValues device_args;
    layer(kDecode, [&] {
      spec = device->spec_for(rx.netcl.comp);
      if (spec != nullptr) device_args = netcl::sim::decode_args(*spec, rx.payload);
    });
    if (parsed || spec == nullptr) throw std::runtime_error("layer walk: packet not understood");
    netcl::sim::ComputeOutcome outcome;
    layer(kExecute, [&] { outcome = device->execute(rx.netcl.comp, device_args, rx.netcl); });
    layer(kEncode, [&] {
      rx.payload = netcl::sim::encode_args(*spec, device_args);
      rx.netcl.len = static_cast<std::uint16_t>(rx.payload.size());
    });
    netcl::runtime::apply_action(rx.netcl, outcome.action, outcome.target, 1);
    std::pair<netcl::runtime::Message, ArgValues> result;
    layer(kUnpack, [&] { result = netcl::runtime::unpack(rx, host_spec); });
    const std::uint64_t request_end = now_ns();
    log.close(parent, request_end);
    if (timed) {
      request_ns.push_back(static_cast<double>(request_end - request_start));
      stage_ops += outcome.stage_ops;
    }

    // The walk's answers are checked like the live path's.
    const ArgValues& got = result.second;
    if (!cache) {
      if (got[3][0] != calc_expected(calc)) ++wrong;
      continue;
    }
    CacheWalkKey& key = keys[query.key];
    if (query.op == netcl::apps::kGetReq) {
      const bool hit = got[3][0] != 0;
      if (timed) {
        ++gets;
        if (hit) ++hits;
      }
      if (hit != (key.populated && key.valid)) {
        ++wrong;
      } else if (hit) {
        cache_value(query.key, key.version, kKindPut, expected);
        if (got[2] != expected) ++wrong;
      }
    } else {
      key.version = query.version;
      if (key.populated) key.valid = query.op == netcl::apps::kPutReq;
    }
  }
  out.check(wrong == 0, std::to_string(wrong) + " wrong answers in the layer walk");

  const double n = static_cast<double>(count);
  double request_total = 0.0;
  for (double v : request_ns) request_total += v;
  std::printf("layer walk (%s, %zu requests, seed %llu): request %.0f ns mean\n",
              cache ? "CACHE" : "CALC", count, static_cast<unsigned long long>(seed),
              request_total / n);
  std::printf("  %-18s %10s %10s %8s %8s\n", "layer", "self_ns_p50", "self_ns_avg", "share",
              "allocs");
  double children = 0.0;
  for (int l = 0; l < kLayers; ++l) {
    double total = 0.0;
    for (double v : layer_ns[l]) total += v;
    children += total;
    const double per_call = median(layer_ns[l]);
    const double allocs_per_call = static_cast<double>(allocs[l]) / n;
    std::printf("  %-18s %10.0f %10.0f %7.1f%% %8.2f\n", kLayerNames[l], per_call, total / n,
                100.0 * total / request_total, allocs_per_call);
    out.add(std::string(kLayerNames[l]) + "_ns", per_call, "ns");
    out.add(std::string(kLayerNames[l]) + "_allocs", allocs_per_call, "count");
  }
  std::printf("  %-18s %10s %10.0f %7.1f%%\n", "(request self)", "", (request_total - children) / n,
              100.0 * (request_total - children) / request_total);
  out.add("sim.stage_ops_per_packet", static_cast<double>(stage_ops) / n, "count");
  out.add("sim.hit_ratio", gets > 0 ? static_cast<double>(hits) / static_cast<double>(gets) : 0.0,
          "ratio");
}

void compile_layers(SpanLog& log, Outcome& out) {
  constexpr int kRounds = 5;  // after one untimed round
  enum Phase {
    kAnalyze, kLower, kPipeline, kVerify, kEmit, kLinearize, kStageAlloc, kPhv, kLoad, kPhases
  };
  constexpr std::array<const char*, kPhases> kPhaseNames = {
      "frontend.analyze", "ir.lower",       "passes.pipeline", "ir.verify",       "p4.emit",
      "p4.linearize",     "p4.stage_alloc", "p4.phv",          "sim.load_program"};
  const std::vector<LoadProgram> programs = load_programs();
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const LoadProgram& program = programs[p];
    const netcl::DefineMap defines(program.defines.begin(), program.defines.end());
    // Kernel loads compile with the daemon compiler's default options.
    const netcl::driver::CompileOptions options;
    std::array<std::vector<double>, kPhases> phase_us;
    std::array<std::uint64_t, kPhases> phase_allocs{};
    std::vector<double> compile_us;
    int insts = -1;
    int stages = -1;
    for (int round = 0; round <= kRounds; ++round) {
      const bool timed = round > 0;
      const std::uint64_t request = p * 100 + static_cast<std::uint64_t>(round);
      const std::uint64_t start = now_ns();
      const std::int64_t parent = timed ? log.add("compile", start, 0, -1, request) : -1;
      auto phase = [&](Phase which, auto&& call) {
        const std::uint64_t a0 = thread_allocations();
        const std::uint64_t s = now_ns();
        call();
        const std::uint64_t e = now_ns();
        const std::uint64_t a1 = thread_allocations();
        if (!timed) return;
        phase_us[which].push_back(static_cast<double>(e - s) / 1e3);
        phase_allocs[which] += a1 - a0;
        log.add(kPhaseNames[which], s, e, parent, request);
      };

      netcl::SourceBuffer buffer("<netcl>", program.app.source);
      netcl::DiagnosticEngine diags;
      netcl::Program ast;
      phase(kAnalyze, [&] { ast = netcl::analyze_netcl(buffer, diags, defines); });
      std::unique_ptr<netcl::ir::Module> module;
      netcl::ir::LowerOptions lower_options;
      lower_options.device_id = options.device_id;
      if (!diags.has_errors()) {
        phase(kLower, [&] { module = netcl::ir::lower_program(ast, lower_options, diags); });
      }
      if (diags.has_errors() || module == nullptr) {
        throw std::runtime_error(program.app.name + ": " + diags.render_all(&buffer));
      }
      netcl::passes::PassOptions pass_options;
      pass_options.target = options.target;
      pass_options.speculation = options.speculation;
      pass_options.hoisting = options.hoisting;
      pass_options.duplication = options.duplication;
      pass_options.partitioning = options.partitioning;
      phase(kPipeline, [&] { netcl::passes::run_pipeline(*module, pass_options, diags); });
      int after = 0;
      for (const auto& fn : module->functions()) after += static_cast<int>(fn->instruction_count());
      std::vector<std::string> violations;
      phase(kVerify, [&] { violations = netcl::ir::verify(*module); });
      if (diags.has_errors() || !violations.empty()) {
        throw std::runtime_error(program.app.name + ": pass pipeline or verifier failed");
      }
      netcl::p4::P4Program p4_text;
      phase(kEmit, [&] { p4_text = netcl::p4::emit_p4(*module, netcl::p4::P4Dialect::Tna); });
      netcl::p4::LinearizeOptions linearize_options;
      linearize_options.speculation = options.speculation;
      std::vector<netcl::p4::KernelProgram> kernels;
      phase(kLinearize, [&] { kernels = netcl::p4::linearize_module(*module, linearize_options); });
      netcl::p4::AllocationResult allocation;
      phase(kStageAlloc, [&] {
        allocation =
            netcl::p4::allocate_stages(kernels, *module, options.limits, options.base_stages);
      });
      if (!allocation.fits) throw std::runtime_error(program.app.name + ": " + allocation.error);
      netcl::p4::PhvUsage phv;
      phase(kPhv, [&] { phv = netcl::p4::compute_phv(kernels); });

      netcl::sim::ProgramArtifact artifact;
      artifact.name = program.app.name;
      artifact.module = std::move(module);
      artifact.kernels = std::move(kernels);
      artifact.stages_used = allocation.stages_used;
      artifact.per_stage = std::move(allocation.per_stage);
      netcl::sim::SwitchDevice device(1);
      netcl::runtime::Error loaded;
      phase(kLoad, [&] { loaded = device.load_program(program.tenant, std::move(artifact)); });
      if (loaded) throw std::runtime_error(program.app.name + ": " + loaded.to_string());
      const std::uint64_t end = now_ns();
      log.close(parent, end);
      if (timed) compile_us.push_back(static_cast<double>(end - start) / 1e3);

      // Compilation is deterministic: every round yields the same program.
      out.check((insts < 0 || insts == after) && (stages < 0 || stages == allocation.stages_used),
                program.app.name + " compiled differently across rounds");
      insts = after;
      stages = allocation.stages_used;
    }
    // Per program: each phase's time (median over rounds), its share of
    // the whole compile-and-load, and its heap allocations per round.
    double compile_total = 0.0;
    for (double v : compile_us) compile_total += v;
    std::printf("compile path, %s (%d rounds; %d insts after passes, %d stages): %.1f us\n",
                program.app.name.c_str(), kRounds, insts, stages, median(compile_us));
    std::printf("  %-20s %10s %10s %8s %8s\n", "phase", "us_p50", "us_avg", "share", "allocs");
    double phases_total = 0.0;
    for (int ph = 0; ph < kPhases; ++ph) {
      double total = 0.0;
      for (double v : phase_us[ph]) total += v;
      phases_total += total;
      const double value = median(phase_us[ph]);
      std::printf("  %-20s %10.1f %10.1f %7.1f%% %8.0f\n", kPhaseNames[ph], value,
                  total / kRounds, 100.0 * total / compile_total,
                  static_cast<double>(phase_allocs[ph]) / kRounds);
      out.add(std::string(kPhaseNames[ph]) + "_us." + program.app.name, value, "us");
    }
    std::printf("  %-20s %10s %10.1f %7.1f%%\n", "(compile self)", "",
                (compile_total - phases_total) / kRounds,
                100.0 * (compile_total - phases_total) / compile_total);
    out.add("passes.insts_after." + program.app.name, insts, "count");
    out.add("p4.stages_used." + program.app.name, stages, "count");
  }
}

}  // namespace perfbench

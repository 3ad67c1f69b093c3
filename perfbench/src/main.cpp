// perfbench: the NetCL end-to-end benchmark binary.
//
//   perfbench --workload calc-loopback|cache-loopback|kernel-load
//             --seed N --seconds S --trace 0|1 [--corrupt-every N] [--out-dir D]
//
// Prints human-readable figures, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1, after the result line, when a whole-run check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload calc-loopback|cache-loopback|kernel-load "
               "--seed N --seconds S --trace 0|1 [--corrupt-every N] [--out-dir DIR]\n");
  return 2;
}

void print_result(const perfbench::Outcome& out) {
  netcl::obs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.value(out.correct);
  w.key("attempted");
  w.value(out.attempted);
  w.key("failed");
  w.value(out.failed);
  w.key("metrics");
  w.begin_object();
  for (const perfbench::Metric& m : out.metrics) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") return usage();
    } else if (flag == "--corrupt-every") {
      args.corrupt_every = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage();
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return usage();
  }
  if (!have_seconds || args.seconds <= 0.0 || args.seconds > 600.0) return usage();

  perfbench::pin_role(perfbench::Role::kClient);
  std::unique_ptr<perfbench::Workload> workload;
  if (args.workload == "calc-loopback") {
    workload = perfbench::calc_workload(args);
  } else if (args.workload == "cache-loopback") {
    workload = perfbench::cache_workload(args);
  } else if (args.workload == "kernel-load") {
    workload = perfbench::kernel_load_workload(args);
  } else {
    return usage();
  }
  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(args, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (args.corrupt_every != 0) {
    std::printf("selftest: injected=%llu\n", static_cast<unsigned long long>(out.injected));
  }
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), out.correct ? "true" : "false");
  print_result(out);
  // A whole-run check that failed makes the run's figures meaningless.
  return out.correct ? 0 : 1;
}

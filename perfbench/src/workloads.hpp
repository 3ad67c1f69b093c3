// The three workloads, their seeded input generators, the traced-run
// pieces they share (the in-process layer walk, compile-phase timing) and
// the run that drives each of them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/sources.hpp"
#include "common.hpp"
#include "runtime/host.hpp"
#include "support/hashes.hpp"

namespace perfbench {

// --- CALC -------------------------------------------------------------------

struct CalcRequest {
  std::uint64_t op = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Uniformly random opcodes (ADD/SUB/AND/OR/XOR) on random 32-bit operands.
class CalcGenerator {
 public:
  explicit CalcGenerator(std::uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL + 11) {}
  CalcRequest next() {
    CalcRequest r;
    r.op = 1 + rng_.next_below(5);
    r.a = rng_.next() & 0xFFFFFFFFu;
    r.b = rng_.next() & 0xFFFFFFFFu;
    return r;
  }

 private:
  netcl::SplitMix64 rng_;
};

/// The benchmark's own answer: `a op b` mod 2^32.
[[nodiscard]] std::uint64_t calc_expected(const CalcRequest& r);

// --- CACHE ------------------------------------------------------------------

/// Input make-up of cache-loopback (README "Inputs").
inline constexpr int kCacheUniverse = 4096;   // distinct keys
inline constexpr int kCachePopulated = 64;    // hottest keys, populated at set-up
inline constexpr double kCacheZipf = 1.3;     // popularity of rank r ~ 1/(r+1)^s
inline constexpr int kCacheGetPct = 90;
inline constexpr int kCachePutPct = 9;        // the rest (1%) are DELs
inline constexpr int kCacheValWords = 16;     // apps::cache_source default
inline constexpr std::uint64_t kCacheHotThreshold = 1000;
/// Server replies. GET misses come back as apps::kCacheResponse.
inline constexpr std::uint64_t kPutAck = 10;
inline constexpr std::uint64_t kDelAck = 11;
/// Value word 3: what the write that produced the version was.
inline constexpr std::uint32_t kKindPut = 1;
inline constexpr std::uint32_t kKindDel = 2;

struct CacheRequest {
  std::uint64_t op = 0;  // apps::kGetReq / kPutReq / kDelReq
  std::uint64_t key = 0;
  /// For PUT/DEL: the new version of the key (1, 2, ... per key).
  std::uint32_t version = 0;
};

/// Zipf-skewed keys over a seeded key universe, GET/PUT/DEL mix. Versions
/// count writes per key, so every value a GET can see is identifiable.
class CacheGenerator {
 public:
  explicit CacheGenerator(std::uint64_t seed);
  CacheRequest next();
  /// The populated keys (the kCachePopulated most popular), hottest first.
  [[nodiscard]] std::vector<std::uint64_t> populated() const;

 private:
  netcl::SplitMix64 rng_;
  std::vector<std::uint64_t> keys_;  // by popularity rank
  std::vector<double> cdf_;
  std::unordered_map<std::uint64_t, std::uint32_t> versions_;
};

/// The value words for (key, version, kind): words 0-1 the key, word 2 the
/// version, word 3 the kind, the rest a checksum of all three.
void cache_value(std::uint64_t key, std::uint32_t version, std::uint32_t kind,
                 std::vector<std::uint64_t>& words);

/// Fills the cache the way the storage controller does: the hot-key
/// threshold, then, for each populated key, its index, its word mask, its
/// version-0 value words and its valid bit. Set-up passes control-plane
/// calls and the layer walk passes direct device calls. Each callback
/// returns an error text, empty on success. The result is the first error.
using CacheInsert =
    std::function<std::string(const std::string& table, std::uint64_t key, std::uint64_t value)>;
using CacheWrite = std::function<std::string(
    const std::string& name, const std::vector<std::uint64_t>& indices, std::uint64_t value)>;
[[nodiscard]] std::string populate_cache(std::uint64_t seed, const CacheInsert& insert,
                                         const CacheWrite& write);

// --- kernel-load --------------------------------------------------------------

/// One program of the kernel-load mix, with the tenant id and defines the
/// lifecycle sends (COMP is the tenant id, so every program's computation
/// id is distinct).
struct LoadProgram {
  netcl::apps::AppSource app;
  std::uint32_t tenant = 0;
  std::map<std::string, std::uint64_t> defines;
};
[[nodiscard]] std::vector<LoadProgram> load_programs();

// --- traced-run pieces (layers.cpp) --------------------------------------------

/// Replays `count` requests of the workload's seeded sequence through the
/// data-path layers in-process and adds the sim./net./runtime. per-call
/// metrics. `cache` selects the CACHE walk, else CALC.
void layer_walk(bool cache, std::uint64_t seed, std::size_t count, SpanLog& log,
                Outcome& out);

/// Times each compile phase of every kernel-load program and adds the
/// per-program frontend./ir./passes./p4./sim.load_program metrics.
void compile_layers(SpanLog& log, Outcome& out);

/// What one measured phase did. On the live path with tracing on, it also
/// holds the client's send_batch time and the daemon's share.
struct PhaseResult {
  std::uint64_t completed = 0;  // operations (kernel-load: lifecycles)
  double seconds = 0.0;
  double cpu_s = 0.0;         // process CPU, all threads
  double client_cpu_s = 0.0;  // the client (main) thread
  std::uint64_t messages = 0;       // handed to send_batch
  std::uint64_t send_batch_ns = 0;  // inside send_batch, when traced
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_syscalls = 0;
  double daemon_cpu_s = 0.0;
  double daemon_wall_s = 0.0;
  std::uint64_t daemon_rx = 0;
  std::uint64_t daemon_rx_calls = 0;
  std::uint64_t daemon_shed = 0;  // since the daemon started

  /// Adds the daemon's work between two snapshots.
  void add_daemon(const DaemonSnapshot& before, const DaemonSnapshot& after);
  PhaseResult& operator+=(const PhaseResult& o);
};

/// Live-path per-layer metrics shared by the three workloads.
struct LiveLayers {
  double send_batch_ns = 0.0;        // per message
  double host_cpu_us_per_op = 0.0;   // client thread
  double swd_cpu_us_per_packet = 0.0;
  double swd_utilization = 0.0;
  double tx_syscalls_per_packet = 0.0;
  double rx_packets_per_batch = 0.0;
  double packets_shed = 0.0;
  double control_rpc_us = 0.0;
};
/// The live-path layers of a traced phase (control_rpc_us left 0).
[[nodiscard]] LiveLayers live_layers(const PhaseResult& traced);
void add_live_layers(const LiveLayers& live, Outcome& out);

/// Median round trip of `rounds` list_kernels_e RPCs (a control RPC that
/// compiles nothing), in µs; -1 when one fails.
[[nodiscard]] double control_rpc_us(netcl::runtime::DeviceConnection& control, int rounds);

/// End-to-end figures of one measurement.
struct Figures {
  double ops_per_s = 0.0;
  double lat_p50_us = 0.0;
  double lat_p90_us = 0.0;
  double cpu_us_per_op = 0.0;
  /// For reference: the highest percentile the latency samples support,
  /// its value and the sample count.
  double tail_pct = 0.0;
  double tail_us = 0.0;
  std::size_t samples = 0;
  PhaseResult loaded;  // the loaded phases, summed: the live-path layers
};

/// What a workload supplies to run_workload: its set-up, its measurement,
/// its checks and its layer walk. One environment exists at a time.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the environment and runs the untimed warm-up (timed as setup_s).
  virtual void setup(Outcome& out) = 0;
  /// Measures for `seconds`, recording spans into `log` when it is given.
  virtual Figures measure(double seconds, SpanLog* log, Outcome& out) = 0;
  /// The environment's control connection.
  virtual netcl::runtime::DeviceConnection& control() = 0;
  /// Runs the whole-run checks, tallies the environment's operations into
  /// `out` and tears the environment down.
  virtual void finish(Outcome& out) = 0;
  /// Traced run: prints the workload's own summary of the live spans.
  virtual void summarize(const SpanLog& /*log*/) {}
  /// Traced run: replays the workload's requests through the layer walk.
  virtual void walk(SpanLog& log, Outcome& out) = 0;
};

/// Runs one workload (run.cpp). Untraced: one set-up, a measurement of
/// args.seconds, its checks, peak RSS, then more set-ups for the setup_s
/// median. Traced: an untraced and a traced half, the live-path layers,
/// the layer walk, the compile phases and the trace file.
[[nodiscard]] Outcome run_workload(const RunArgs& args, Workload& workload);

// --- workloads ------------------------------------------------------------------

[[nodiscard]] std::unique_ptr<Workload> calc_workload(const RunArgs& args);
[[nodiscard]] std::unique_ptr<Workload> cache_workload(const RunArgs& args);
[[nodiscard]] std::unique_ptr<Workload> kernel_load_workload(const RunArgs& args);

}  // namespace perfbench

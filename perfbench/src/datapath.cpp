// calc-loopback and cache-loopback: one client host sends seeded requests
// through an in-process netcl-swd over loopback UDP, and checks every
// answer against the benchmark's own computation.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "apps/sources.hpp"
#include "driver/compiler.hpp"
#include "net/udp_transport.hpp"
#include "runtime/host.hpp"
#include "workloads.hpp"

namespace perfbench {

using netcl::KernelSpec;
using netcl::net::UdpTransport;
using netcl::runtime::DeviceConnection;
using netcl::runtime::HostRuntime;
using netcl::runtime::Message;
using netcl::sim::ArgValues;

std::uint64_t calc_expected(const CalcRequest& r) {
  switch (r.op) {
    case netcl::apps::kCalcAdd: return (r.a + r.b) & 0xFFFFFFFFu;
    case netcl::apps::kCalcSub: return (r.a - r.b) & 0xFFFFFFFFu;
    case netcl::apps::kCalcAnd: return r.a & r.b;
    case netcl::apps::kCalcOr: return r.a | r.b;
    case netcl::apps::kCalcXor: return r.a ^ r.b;
    default: return 0;
  }
}

CacheGenerator::CacheGenerator(std::uint64_t seed) : rng_(seed * 0xD1B54A32D192ED03ULL + 7) {
  // Distinct nonzero 48-bit keys in popularity order.
  std::unordered_map<std::uint64_t, bool> seen;
  while (keys_.size() < static_cast<std::size_t>(kCacheUniverse)) {
    const std::uint64_t key = (rng_.next() & 0xFFFFFFFFFFFFull) | 1u;
    if (seen.emplace(key, true).second) keys_.push_back(key);
  }
  double total = 0.0;
  for (int rank = 0; rank < kCacheUniverse; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kCacheZipf);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

CacheRequest CacheGenerator::next() {
  CacheRequest r;
  const double u = rng_.next_double();
  const auto rank = static_cast<std::size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  r.key = keys_[std::min(rank, keys_.size() - 1)];
  const std::uint64_t pick = rng_.next_below(100);
  if (pick < static_cast<std::uint64_t>(kCacheGetPct)) {
    r.op = netcl::apps::kGetReq;
  } else {
    r.op = pick < static_cast<std::uint64_t>(kCacheGetPct + kCachePutPct) ? netcl::apps::kPutReq
                                                                          : netcl::apps::kDelReq;
    r.version = ++versions_[r.key];
  }
  return r;
}

std::vector<std::uint64_t> CacheGenerator::populated() const {
  return {keys_.begin(), keys_.begin() + kCachePopulated};
}

void cache_value(std::uint64_t key, std::uint32_t version, std::uint32_t kind,
                 std::vector<std::uint64_t>& words) {
  words.assign(kCacheValWords, 0);
  words[0] = key & 0xFFFFFFFFu;
  words[1] = key >> 32;
  words[2] = version;
  words[3] = kind;
  netcl::SplitMix64 mix(key ^ (static_cast<std::uint64_t>(version) << 40) ^ kind);
  for (int w = 4; w < kCacheValWords; ++w) words[static_cast<std::size_t>(w)] = mix.next() & 0xFFFFFFFFu;
}

std::string populate_cache(std::uint64_t seed, const CacheInsert& insert,
                           const CacheWrite& write) {
  std::string error = write("thresh", {}, kCacheHotThreshold);
  std::vector<std::uint64_t> words;
  const std::vector<std::uint64_t> keys = CacheGenerator(seed).populated();
  for (std::uint64_t idx = 0; idx < keys.size() && error.empty(); ++idx) {
    error = insert("KeyIndex", keys[idx], idx);
    if (error.empty()) error = insert("WordMask", keys[idx], (1u << kCacheValWords) - 1);
    cache_value(keys[idx], 0, kKindPut, words);
    for (std::uint64_t w = 0; w < words.size() && error.empty(); ++w) {
      error = write("Values", {w, idx}, words[w]);
    }
    if (error.empty()) error = write("Valid", {idx}, 1);
  }
  return error;
}

namespace {

/// Requests kept outstanding in the loaded phase. Below the daemon's
/// ingress queue (1024) even when every request costs two daemon packets.
constexpr std::size_t kCalcWindow = 32;
constexpr std::size_t kCacheWindow = 32;
/// Untimed warm-up requests at the end of set-up.
constexpr std::uint64_t kCalcWarmup = 3000;
constexpr std::uint64_t kCacheWarmup = 1500;
/// Round trips one half-second slice keeps (a few µs each at the least).
constexpr std::size_t kSliceSamples = 1 << 18;
/// A request with no answer for this long is counted failed.
constexpr std::uint64_t kResponseTimeoutNs = 1'000'000'000;

/// A data-path client: issues seeded requests, matches and checks answers.
class Client {
 public:
  Client() { rtt_us.reserve(kSliceSamples); }
  virtual ~Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  /// Appends the next request to `batch` and tracks it as outstanding.
  virtual void issue(std::vector<HostRuntime::Outbound>& batch) = 0;
  [[nodiscard]] virtual std::size_t outstanding() const = 0;
  /// Counts every outstanding request failed: its answer never came.
  virtual void abandon() = 0;

  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t injected = 0;
  /// Answers that matched no outstanding request.
  std::uint64_t unexpected = 0;
  std::uint64_t corrupt_every = 0;
  /// Round trips (µs) of completed requests, while set. Reserved, not
  /// filled, so only the pages a slice writes become resident.
  bool record_rtt = false;
  std::vector<double> rtt_us;
  /// Per-request spans, while set.
  SpanLog* log = nullptr;

 protected:
  /// Self-test: true for one eligible answer in every corrupt_every.
  bool corrupt_now() {
    return corrupt_every != 0 && ++eligible_ % corrupt_every == 0;
  }
  std::int64_t open_span(std::uint64_t id, std::uint64_t sent_ns) {
    return log == nullptr ? -1 : log->add("request", sent_ns, sent_ns, -1, id);
  }
  void finish(std::uint64_t sent_ns, std::int64_t span, bool ok) {
    const std::uint64_t t = now_ns();
    ++completed;
    if (!ok) ++failed;
    if (record_rtt && rtt_us.size() < rtt_us.capacity()) {
      rtt_us.push_back(static_cast<double>(t - sent_ns) / 1e3);
    }
    if (log != nullptr) log->close(span, t);
  }

 private:
  std::uint64_t eligible_ = 0;
};

class CalcClient final : public Client {
 public:
  CalcClient(std::uint64_t seed, const KernelSpec& spec) : gen_(seed), spec_(spec) {}

  void issue(std::vector<HostRuntime::Outbound>& batch) override {
    Pending p;
    p.request = gen_.next();
    p.id = next_id_++;
    p.sent_ns = now_ns();
    p.span = open_span(p.id, p.sent_ns);
    ArgValues args = netcl::sim::make_args(spec_);
    args[0][0] = p.request.op;
    args[1][0] = p.request.a;
    args[2][0] = p.request.b;
    batch.push_back({Message(1, 1, 1, 1), std::move(args)});
    pending_.push_back(p);
    ++attempted;
  }
  [[nodiscard]] std::size_t outstanding() const override { return pending_.size(); }
  void abandon() override {
    failed += pending_.size();
    pending_.clear();
  }

  void on_response(ArgValues& args) {
    // Answers come back in request order over one daemon; search the
    // window anyway so a reordering is told apart from a wrong answer.
    auto it = pending_.begin();
    for (; it != pending_.end(); ++it) {
      if (it->request.op == args[0][0] && it->request.a == args[1][0] &&
          it->request.b == args[2][0]) {
        break;
      }
    }
    if (it == pending_.end()) {
      ++unexpected;
      return;
    }
    std::uint64_t result = args[3][0];
    if (corrupt_now()) {
      result ^= 1;
      ++injected;
    }
    const Pending p = *it;
    pending_.erase(it);
    finish(p.sent_ns, p.span, result == calc_expected(p.request));
  }

 private:
  struct Pending {
    CalcRequest request;
    std::uint64_t id = 0;
    std::uint64_t sent_ns = 0;
    std::int64_t span = -1;
  };
  CalcGenerator gen_;
  KernelSpec spec_;
  std::deque<Pending> pending_;
  std::uint64_t next_id_ = 0;
};

class CacheClient final : public Client {
 public:
  CacheClient(std::uint64_t seed, const KernelSpec& spec) : gen_(seed), spec_(spec) {
    for (std::uint64_t key : gen_.populated()) {
      KeyState& state = keys_[key];
      state.populated = true;
      state.valid = true;
    }
  }

  void issue(std::vector<HostRuntime::Outbound>& batch) override {
    Pending p;
    p.request = gen_.next();
    p.sent_ns = now_ns();
    const std::uint64_t id = next_id_++;
    p.span = open_span(id, p.sent_ns);
    KeyState& key = keys_[p.request.key];
    ArgValues args = netcl::sim::make_args(spec_);
    args[0][0] = p.request.op;
    args[1][0] = p.request.key;
    if (p.request.op == netcl::apps::kGetReq) {
      // The device runs requests in send order, so the path a GET takes is
      // known now: a hit iff the key is cached and its line is valid.
      p.floor = key.acked;
      p.ceiling = key.sent;
      p.expect_hit = key.populated && key.valid;
      ++gets_;
    } else {
      const bool put = p.request.op == netcl::apps::kPutReq;
      const std::uint32_t kind = put ? kKindPut : kKindDel;
      key.sent = p.request.version;
      key.kinds.push_back(static_cast<std::uint8_t>(kind));
      if (key.populated) key.valid = put;  // write-back PUT / invalidating DEL
      cache_value(p.request.key, p.request.version, kind, args[2]);
    }
    (p.expect_hit ? key.hit_queue : key.server_queue).push_back(id);
    pending_.emplace(id, p);
    batch.push_back({Message(1, 2, 1, 1), std::move(args)});
    ++attempted;
  }
  [[nodiscard]] std::size_t outstanding() const override { return pending_.size(); }
  void abandon() override {
    failed += pending_.size();
    pending_.clear();
    for (auto& [k, state] : keys_) {
      state.hit_queue.clear();
      state.server_queue.clear();
    }
  }

  void on_response(ArgValues& args) {
    const std::uint64_t op = args[0][0];
    const bool hit = args[3][0] != 0;
    auto key_it = keys_.find(args[1][0]);
    std::deque<std::uint64_t>* queue = nullptr;
    std::uint64_t request_op = 0;
    if (key_it != keys_.end()) {
      KeyState& key = key_it->second;
      if (op == netcl::apps::kGetReq && hit) {
        queue = &key.hit_queue;
        request_op = netcl::apps::kGetReq;
      } else if (op == netcl::apps::kCacheResponse) {
        queue = &key.server_queue;
        request_op = netcl::apps::kGetReq;
      } else if (op == kPutAck || op == kDelAck) {
        queue = &key.server_queue;
        request_op = op == kPutAck ? netcl::apps::kPutReq : netcl::apps::kDelReq;
      }
    }
    if (queue == nullptr || queue->empty()) {
      ++unexpected;
      return;
    }
    if (hit) ++hits_seen;
    const std::uint64_t id = queue->front();
    queue->pop_front();
    auto pending_it = pending_.find(id);
    const Pending p = pending_it->second;
    pending_.erase(pending_it);
    KeyState& key = key_it->second;
    bool ok = p.request.op == request_op;
    std::vector<std::uint64_t>& words = args[2];
    if (ok && request_op == netcl::apps::kGetReq) {
      if (p.floor >= 1 && corrupt_now()) {
        // A consistent-looking but stale value: older than a write the
        // client saw acknowledged before it sent the GET.
        cache_value(p.request.key, p.floor - 1, key.kinds[p.floor - 1], words);
        ++injected;
      }
      ok = hit == p.expect_hit && check_value(p, key, words);
    } else if (ok) {
      ok = words.size() == static_cast<std::size_t>(kCacheValWords) &&
           words[2] == p.request.version;
      if (ok) key.acked = std::max(key.acked, p.request.version);
    }
    finish(p.sent_ns, p.span, ok);
  }

  std::uint64_t hits_seen = 0;
  [[nodiscard]] std::uint64_t gets() const { return gets_; }

 private:
  struct KeyState {
    bool populated = false;
    bool valid = false;  // the cache line's Valid bit, as the device will see it
    std::uint32_t sent = 0;   // newest version sent
    std::uint32_t acked = 0;  // newest version acknowledged
    std::vector<std::uint8_t> kinds{static_cast<std::uint8_t>(kKindPut)};  // per version
    std::deque<std::uint64_t> hit_queue;     // GETs the device answers
    std::deque<std::uint64_t> server_queue;  // requests the KV server answers
  };
  struct Pending {
    CacheRequest request;
    std::uint64_t sent_ns = 0;
    std::int64_t span = -1;
    std::uint32_t floor = 0;    // GET: newest version acked before sending
    std::uint32_t ceiling = 0;  // GET: newest version sent before sending
    bool expect_hit = false;
  };

  bool check_value(const Pending& p, const KeyState& key,
                   const std::vector<std::uint64_t>& words) {
    if (words.size() != static_cast<std::size_t>(kCacheValWords)) return false;
    const auto version = static_cast<std::uint32_t>(words[2]);
    if (version < p.floor || version > p.ceiling) return false;
    cache_value(p.request.key, version, key.kinds[version], expected_);
    return words == expected_;
  }

  CacheGenerator gen_;
  KernelSpec spec_;
  std::unordered_map<std::uint64_t, KeyState> keys_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::vector<std::uint64_t> expected_;
  std::uint64_t next_id_ = 0;
  std::uint64_t gets_ = 0;
};

/// The KV server host of cache-loopback, on its own thread and socket:
/// answers GET misses from its store, applies PUTs and DELs, and replies
/// back through the daemon without computation.
class KvServer {
 public:
  KvServer(std::uint16_t daemon_port, const KernelSpec& spec)
      : transport_(options(daemon_port)), host_(transport_, 2) {
    host_.register_spec(1, spec);
    host_.on_receive([this](const Message& m, ArgValues& a) { on_request(m, a); });
    if (!transport_.valid()) throw std::runtime_error("kv server: " + transport_.error());
    // The daemon learns host endpoints from arriving packets: say hello
    // (host-addressed, so it loops straight back) before serving.
    ArgValues hello = netcl::sim::make_args(spec);
    host_.send(Message(2, 2, 1, 0), hello);
    if (!transport_.run_until([this] { return hello_seen_; }, 2e9)) {
      throw std::runtime_error("kv server: daemon did not learn the server endpoint");
    }
    thread_ = std::thread([this] { serve(); });
  }
  ~KvServer() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

 private:
  static UdpTransport::Options options(std::uint16_t daemon_port) {
    UdpTransport::Options o;
    o.peer_port = daemon_port;
    o.metrics_name = "perfbench.kv";
    return o;
  }

  void serve() {
    pin_role(Role::kServer);
    while (!stop_.load(std::memory_order_relaxed)) {
      transport_.poll_once(10);
      if (!replies_.empty()) {
        host_.send_batch(replies_);
        replies_.clear();
      }
    }
  }

  void on_request(const Message& message, ArgValues& args) {
    const std::uint64_t op = args[0][0];
    const std::uint64_t key = args[1][0];
    if (op == 0) {
      hello_seen_ = true;
      return;
    }
    auto& [version, kind] = store_[key];
    if (kind == 0) kind = kKindPut;  // every key starts present at version 0
    std::uint64_t reply_op = 0;
    if (op == netcl::apps::kGetReq) {
      reply_op = netcl::apps::kCacheResponse;
      cache_value(key, version, kind, args[2]);
    } else if (op == netcl::apps::kPutReq || op == netcl::apps::kDelReq) {
      version = static_cast<std::uint32_t>(args[2][2]);
      kind = op == netcl::apps::kPutReq ? kKindPut : kKindDel;
      reply_op = op == netcl::apps::kPutReq ? kPutAck : kDelAck;
    } else {
      return;
    }
    args[0][0] = reply_op;
    replies_.push_back({Message(2, message.src, 1, 0), args});
  }

  UdpTransport transport_;
  HostRuntime host_;
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>> store_;
  std::vector<HostRuntime::Outbound> replies_;
  bool hello_seen_ = false;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after everything it uses
};

/// Everything one set-up builds; destroyed in reverse order.
struct Env {
  KernelSpec spec;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<DeviceConnection> control;
  std::unique_ptr<KvServer> server;  // cache-loopback only
  std::unique_ptr<UdpTransport> transport;
  std::unique_ptr<HostRuntime> host;
  std::unique_ptr<Client> client;
  CalcClient* calc = nullptr;
  CacheClient* cache = nullptr;
};

/// Keeps `window` requests outstanding until `seconds` pass or `max_ops`
/// are issued, then waits for the rest. Blocks in poll between batches.
/// With a span log, also times send_batch and reads the daemon's counters.
PhaseResult run_phase(Env& env, std::size_t window, double seconds, std::uint64_t max_ops,
                      SpanLog* log) {
  Client& client = *env.client;
  client.log = log;
  PhaseResult r;
  DaemonSnapshot before;
  if (log != nullptr) before = env.daemon->snapshot();
  const std::uint64_t tx_packets0 = env.transport->packets_sent;
  const std::uint64_t tx_syscalls0 = env.transport->send_syscalls;
  const std::uint64_t completed0 = client.completed;
  const double cpu0 = process_cpu_s();
  const double client_cpu0 = thread_cpu_s();
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<HostRuntime::Outbound> batch;
  batch.reserve(window);
  std::uint64_t issued = 0;
  std::uint64_t last_progress = t0;
  std::uint64_t last_completed = client.completed;
  for (;;) {
    const std::uint64_t now = now_ns();
    const bool sending = now < deadline && issued < max_ops;
    if (client.completed != last_completed) {
      last_completed = client.completed;
      last_progress = now;
    }
    if (client.outstanding() > 0 && now - last_progress > kResponseTimeoutNs) {
      client.abandon();
      last_progress = now;
    }
    if (!sending && client.outstanding() == 0) break;
    if (sending) {
      // The batch's send_batch span hangs off its first request's span.
      const std::size_t first_span = log != nullptr ? log->spans().size() : 0;
      while (client.outstanding() < window && issued < max_ops) {
        client.issue(batch);
        ++issued;
      }
      if (!batch.empty()) {
        if (log != nullptr) {
          const bool has_parent = first_span < log->spans().size();
          const std::int64_t parent = has_parent ? static_cast<std::int64_t>(first_span) : -1;
          const std::uint64_t request = has_parent ? log->spans()[first_span].request : 0;
          const std::uint64_t s = now_ns();
          env.host->send_batch(batch);
          const std::uint64_t e = now_ns();
          r.send_batch_ns += e - s;
          log->add("runtime.send_batch", s, e, parent, request);
        } else {
          env.host->send_batch(batch);
        }
        r.messages += batch.size();
        batch.clear();
        last_progress = std::max(last_progress, now);
      }
    }
    env.transport->poll_once(100);
  }
  r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  r.cpu_s = process_cpu_s() - cpu0;
  r.client_cpu_s = thread_cpu_s() - client_cpu0;
  r.completed = client.completed - completed0;
  r.tx_packets = env.transport->packets_sent - tx_packets0;
  r.tx_syscalls = env.transport->send_syscalls - tx_syscalls0;
  if (log != nullptr) r.add_daemon(before, env.daemon->snapshot());
  client.log = nullptr;
  return r;
}

std::unique_ptr<Env> make_env(bool cache, const RunArgs& args) {
  auto env = std::make_unique<Env>();
  const netcl::apps::AppSource app = cache ? netcl::apps::cache_source() : netcl::apps::calc_source();
  netcl::driver::CompileOptions options;
  options.device_id = 1;
  options.defines = app.defines;
  netcl::driver::CompileResult compiled = netcl::driver::compile_netcl(app.source, options);
  if (!compiled.ok) throw std::runtime_error(app.name + " compile failed: " + compiled.errors);
  env->spec = compiled.specs.at(1);
  env->daemon = std::make_unique<Daemon>(netcl::driver::make_device(std::move(compiled), 1),
                                         netcl::net::SwdOptions{});
  if (!env->daemon->valid()) throw std::runtime_error("daemon: " + env->daemon->server().error());
  env->control = std::make_unique<DeviceConnection>("127.0.0.1",
                                                    env->daemon->server().control_port());
  if (!env->control->valid()) throw std::runtime_error("control connect failed");
  if (cache) {
    // The storage controller populates the cache over the control plane.
    DeviceConnection& control = *env->control;
    const std::string failed = populate_cache(
        args.seed,
        [&](const std::string& table, std::uint64_t key, std::uint64_t value) {
          const netcl::runtime::Error err = control.insert_e(table, key, value);
          return err ? err.to_string() : std::string();
        },
        [&](const std::string& name, const std::vector<std::uint64_t>& indices,
            std::uint64_t value) {
          const netcl::runtime::Error err = control.managed_write_e(name, value, indices);
          return err ? err.to_string() : std::string();
        });
    if (!failed.empty()) throw std::runtime_error("cache populate: " + failed);
    env->server = std::make_unique<KvServer>(env->daemon->server().udp_port(), env->spec);
  }
  UdpTransport::Options transport_options;
  transport_options.peer_port = env->daemon->server().udp_port();
  transport_options.metrics_name = "perfbench.client";
  env->transport = std::make_unique<UdpTransport>(transport_options);
  if (!env->transport->valid()) throw std::runtime_error("client: " + env->transport->error());
  env->host = std::make_unique<HostRuntime>(*env->transport, 1);
  env->host->register_spec(1, env->spec);
  if (cache) {
    auto client = std::make_unique<CacheClient>(args.seed, env->spec);
    env->cache = client.get();
    env->client = std::move(client);
    env->host->on_receive([c = env->cache](const Message&, ArgValues& a) { c->on_response(a); });
  } else {
    auto client = std::make_unique<CalcClient>(args.seed, env->spec);
    env->calc = client.get();
    env->client = std::move(client);
    env->host->on_receive([c = env->calc](const Message&, ArgValues& a) { c->on_response(a); });
  }
  env->client->corrupt_every = args.corrupt_every;
  run_phase(*env, cache ? kCacheWindow : kCalcWindow, 60.0, cache ? kCacheWarmup : kCalcWarmup,
            nullptr);
  return env;
}


/// calc-loopback and cache-loopback. A measurement is the median over
/// one-second slices, each an unloaded half (one request outstanding: the
/// round trips) and a loaded half (a full window: throughput and CPU per
/// operation). Medians over slices keep a burst of noise from a neighbour
/// out of the figures.
class DatapathWorkload final : public Workload {
 public:
  DatapathWorkload(bool cache, const RunArgs& args) : cache_(cache), args_(args) {}

  void setup(Outcome& /*out*/) override { env_ = make_env(cache_, args_); }

  Figures measure(double seconds, SpanLog* log, Outcome& /*out*/) override {
    const int slices = std::max(1, static_cast<int>(std::lround(seconds)));
    const double half = seconds / slices / 2;
    Client& client = *env_->client;
    std::vector<double> p50s, p90s, ops, cpu;
    LogHistogram pooled;
    Figures f;
    for (int i = 0; i < slices; ++i) {
      client.rtt_us.clear();
      client.record_rtt = true;
      run_phase(*env_, 1, half, UINT64_MAX, log);
      client.record_rtt = false;
      p50s.push_back(quantile(client.rtt_us, 0.5));
      p90s.push_back(quantile(client.rtt_us, 0.9));
      for (double us : client.rtt_us) pooled.add(us);
      const PhaseResult loaded = run_phase(*env_, window(), half, UINT64_MAX, log);
      const double done = static_cast<double>(std::max<std::uint64_t>(loaded.completed, 1));
      ops.push_back(static_cast<double>(loaded.completed) / loaded.seconds);
      cpu.push_back(loaded.cpu_s * 1e6 / done);
      f.loaded += loaded;
    }
    f.ops_per_s = median(ops);
    f.lat_p50_us = median(p50s);
    f.lat_p90_us = median(p90s);
    f.cpu_us_per_op = median(cpu);
    f.samples = pooled.count();
    f.tail_pct = supported_percentile(pooled.count());
    f.tail_us = f.tail_pct > 0 ? pooled.quantile(f.tail_pct / 100) : 0.0;
    return f;
  }

  DeviceConnection& control() override { return *env_->control; }

  void finish(Outcome& out) override {
    // Whole-run checks over the control plane, then on the stopped device.
    if (cache_) {
      const auto access = env_->control->register_access();
      const auto it = access.find("Hits");
      const std::uint64_t hit_writes = it == access.end() ? 0 : it->second.writes;
      env_->daemon->stop();
      std::uint64_t device_hits = 0;
      out.check(env_->daemon->server().device().debug_read("Hits", {}, device_hits),
                "Hits register unreadable");
      const CacheClient& client = *env_->cache;
      std::printf("hits: responses flagged %llu, Hits register %llu, Hits writes %llu, "
                  "GET hit ratio %.3f\n",
                  static_cast<unsigned long long>(client.hits_seen),
                  static_cast<unsigned long long>(device_hits),
                  static_cast<unsigned long long>(hit_writes),
                  static_cast<double>(client.hits_seen) /
                      static_cast<double>(std::max<std::uint64_t>(client.gets(), 1)));
      out.check(device_hits == client.hits_seen && hit_writes == client.hits_seen,
                "device Hits disagrees with the responses flagged as hits");
    }
    // Every environment's warm-up is checked too, so every client is tallied.
    const Client& client = *env_->client;
    out.attempted += client.attempted;
    out.failed += client.failed;
    out.injected += client.injected;
    out.check(client.unexpected == 0,
              std::to_string(client.unexpected) + " answers matched no outstanding request");
    env_.reset();
  }

  void walk(SpanLog& log, Outcome& out) override {
    layer_walk(cache_, args_.seed, cache_ ? 4000 : 20000, log, out);
  }

 private:
  [[nodiscard]] std::size_t window() const { return cache_ ? kCacheWindow : kCalcWindow; }

  bool cache_;
  const RunArgs& args_;
  std::unique_ptr<Env> env_;
};

}  // namespace

std::unique_ptr<Workload> calc_workload(const RunArgs& args) {
  return std::make_unique<DatapathWorkload>(false, args);
}
std::unique_ptr<Workload> cache_workload(const RunArgs& args) {
  return std::make_unique<DatapathWorkload>(true, args);
}

}  // namespace perfbench

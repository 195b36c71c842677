// Workloads "service-mix", "service-alloc" and "service-rtt": the
// multi-tenant execution service driven over TCP loopback through VmServer +
// VmClient, with 4 workers sharing one VM on the clr11 profile.
//
//   service-mix   — closed loop: 4 tenants, one connection each, pipeline
//                   depth 2 (8 jobs in flight for 4 workers). Jobs are the
//                   SciMark fft/sor/montecarlo/sparse/lu mix at the sizes of
//                   bench_service's full run, in a seeded order (shuffled
//                   balanced blocks). Compute-bound, no GC: it isolates
//                   worker scaling and the tiers under concurrency.
//   service-alloc — open loop at a fixed arrival rate (kAllocRate): 2
//                   connections, each with a sender thread on a seeded
//                   Poisson schedule and a receiver thread. Short jobs:
//                   allocators (create_object, create_array(64),
//                   serial_roundtrip), pure compute (fib(18)) and a
//                   ref-argument job summing a seeded f64[] that travels
//                   serialize_graph -> deserialize_graph. GC pauses,
//                   safepoint stalls and queueing set its tail. Latency is
//                   timed from each request's scheduled send time.
//   service-rtt   — the service-alloc jobs in a closed loop of one caller
//                   that waits for each reply (1 connection, depth 1): the
//                   round trip through net, service, tiers and heap without
//                   queueing. It needs at most two busy cores, so unlike
//                   the two loops above it stays steady while other work
//                   on a shared host takes cores away (README.md). Its
//                   untraced run moves the whole process from CPU to CPU
//                   in short segments and scores the fastest segment
//                   (rtt_segments).
//
// Every RESULT value is compared with a reference computed in-process
// during set-up; a wrong value counts as a failed operation.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "cil/jg.hpp"
#include "cil/micro.hpp"
#include "cil/sm.hpp"
#include "kernels/jgf.hpp"
#include "vm/ilbuilder.hpp"
#include "vm/net/client.hpp"
#include "vm/net/server.hpp"
#include "vm/serialize.hpp"
#include "vm/service/service.hpp"

namespace perfbench {

namespace {

namespace vm = hpcnet::vm;
namespace cil = hpcnet::cil;
namespace net = hpcnet::vm::net;
namespace service = hpcnet::vm::service;
namespace telemetry = hpcnet::vm::telemetry;
using vm::Slot;
using vm::ValType;

constexpr int kWorkers = 4;
enum class Mode { Mix, Alloc, Rtt };

/// Set-ups per timing round (bench.hpp): the alloc-job rig builds in a few
/// ms, so each round tries it more often.
constexpr int kMixSetupsPerRound = 1;
constexpr int kAllocSetupsPerRound = 5;
/// service-mix runs without a GC, so its heap grows with jobs done; its
/// peak RSS is sampled once this many jobs have completed.
constexpr std::size_t kMixRssJobs = 1000;
constexpr int kMixClients = 4;
constexpr int kMixDepth = 2;
constexpr int kAllocConnections = 2;
/// Offered load of service-alloc, jobs/s over all connections: about two
/// thirds of the ~9000 jobs/s at which 4 workers on a 4-core x86-64 host
/// still keep p50 within 4x its idle value with the generator on schedule.
constexpr double kAllocRate = 6000;
/// The generator, not the server, has fallen behind when its typical
/// (median) wake-up is later than this, or when its last send left more
/// than kMaxFinalLagMs after its slot; such a run is flagged invalid.
/// Single late wake-ups are jitter, not lag: stop-the-world GC pauses of
/// ~20 ms on all cores delay some by several ms, and since latency is timed
/// from the schedule they are charged to the server anyway.
constexpr double kMaxMedianLateMs = 1.0;
constexpr double kMaxFinalLagMs = 100.0;
/// A send_submit slower than this waited for socket space: the server, not
/// the generator, was behind.
constexpr std::int64_t kBlockedSendNs = 1'000'000;
/// Length of one service-rtt segment, seconds: about 1000 round trips.
constexpr double kRttSegmentS = 0.25;
constexpr int kRefArrays = 16;
constexpr int kRefArrayLength = 512;
const char* const kProfile = "clr11";

/// One kind of job: what the client sends and the value it must get back.
struct JobKind {
  std::string name;  // per-kind stats group (ref-argument variants share one)
  std::int32_t method = -1;
  std::vector<net::WireValue> args;
  ValType ret = ValType::None;
  std::uint64_t want_raw = 0;
  std::size_t submit_bytes = 0;  // SUBMIT frame size, from protocol.hpp

  bool matches(const net::WireResult& r) const {
    if (r.outcome != 0 || r.value.type != ret) return false;
    switch (ret) {
      case ValType::I32:
        return r.value.as_i32() == static_cast<std::int32_t>(want_raw);
      default:
        return r.value.raw == want_raw;
    }
  }
};

/// Wire size of a value inside a SUBMIT or RESULT frame (protocol.hpp).
std::size_t value_bytes(const net::WireValue& v) {
  if (v.type == ValType::Ref) return 1 + 4 + v.blob.size();
  if (v.type == ValType::None) return 1;
  return 1 + 8;
}

std::size_t submit_frame_bytes(const std::vector<net::WireValue>& args) {
  std::size_t n = 4 + 1 + 8 + 4 + 1;  // length, type, id, method, argc
  for (const net::WireValue& a : args) n += value_bytes(a);
  return n;
}

std::size_t result_frame_bytes(const net::WireResult& r) {
  // length, type, id, outcome, value, error string, 4 x u64 counters.
  return 4 + 1 + 8 + 1 + value_bytes(r.value) + 4 + r.error.size() + 32;
}

std::int32_t build_refsum(vm::VirtualMachine& v) {
  vm::ILBuilder b(v.module(), "perfbench.refsum",
                  {{ValType::Ref}, ValType::F64});
  const auto acc = b.add_local(ValType::F64);
  const auto i = b.add_local(ValType::I32);
  auto loop = b.new_label();
  auto test = b.new_label();
  b.ldc_r8(0).stloc(acc).ldc_i4(0).stloc(i).br(test);
  b.bind(loop);
  b.ldloc(acc).ldarg(0).ldloc(i).ldelem(ValType::F64).add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(test);
  b.ldloc(i).ldarg(0).ldlen().blt(loop);
  b.ldloc(acc).ret();
  return b.finish();
}

/// Seeded f64[] arguments for the ref-argument job, serialized on the
/// client's own VM (the client side of the wire is VM-free).
struct RefArgs {
  std::vector<std::vector<char>> blobs;
  std::vector<double> sums;  // reference: the same left-to-right sum
};

RefArgs make_ref_args(std::uint64_t seed) {
  RefArgs out;
  vm::VirtualMachine client_vm;
  std::mt19937_64 rng = make_rng(seed, 30);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int a = 0; a < kRefArrays; ++a) {
    vm::ObjRef arr =
        client_vm.heap().alloc_array(ValType::F64, kRefArrayLength);
    double sum = 0;
    for (int i = 0; i < kRefArrayLength; ++i) {
      const double x = dist(rng);
      arr->f64_data()[i] = x;
      sum += x;
    }
    out.blobs.push_back(vm::serialize_graph(client_vm, arr));
    out.sums.push_back(sum);
  }
  return out;
}

struct Spec {
  JobKind kind;
  std::vector<Slot> ref_args;  // in-process reference invocation (scalars)
  bool has_reference_invoke = true;
};

net::WireValue wire_i32(std::int32_t v) { return net::WireValue::from_i32(v); }

std::vector<Spec> mix_specs(vm::VirtualMachine& v) {
  std::vector<Spec> s;
  const auto add = [&](const char* name, std::int32_t method,
                       std::vector<std::int32_t> args) {
    Spec sp;
    sp.kind.name = name;
    sp.kind.method = method;
    sp.kind.ret = ValType::F64;
    for (std::int32_t a : args) {
      sp.kind.args.push_back(wire_i32(a));
      sp.ref_args.push_back(Slot::from_i32(a));
    }
    s.push_back(std::move(sp));
  };
  add("fft", cil::build_sm_fft(v), {256, 2});
  add("sor", cil::build_sm_sor(v), {100, 10});
  add("montecarlo", cil::build_sm_montecarlo(v), {200000});
  add("sparse", cil::build_sm_sparse(v), {1000, 5000, 10});
  add("lu", cil::build_sm_lu(v), {100});
  return s;
}

std::vector<Spec> alloc_specs(vm::VirtualMachine& v, const RefArgs& refs) {
  std::vector<Spec> s;
  const auto add = [&](const char* name, std::int32_t method, ValType ret,
                       std::int32_t arg) {
    Spec sp;
    sp.kind.name = name;
    sp.kind.method = method;
    sp.kind.ret = ret;
    sp.kind.args.push_back(wire_i32(arg));
    sp.ref_args.push_back(Slot::from_i32(arg));
    s.push_back(std::move(sp));
  };
  add("object", cil::build_create_object(v), ValType::I32, 4000);
  add("array", cil::build_create_array(v, 64), ValType::I32, 1000);
  add("serial", cil::build_serial_roundtrip(v), ValType::I32, 200);
  add("fib", cil::build_jg_fib(v), ValType::I64, 18);
  const std::int32_t refsum = build_refsum(v);
  for (std::size_t a = 0; a < refs.blobs.size(); ++a) {
    Spec sp;
    sp.kind.name = "refsum";
    sp.kind.method = refsum;
    sp.kind.ret = ValType::F64;
    sp.kind.args.push_back(net::WireValue::from_graph(refs.blobs[a]));
    sp.kind.want_raw = Slot::from_f64(refs.sums[a]).raw;
    sp.has_reference_invoke = false;
    s.push_back(std::move(sp));
  }
  return s;
}

/// A service over a VM plus the TCP server in front of it. Members are
/// declared so destruction stops the server before the service.
struct Endpoint {
  std::unique_ptr<service::ExecutionService> svc;
  std::unique_ptr<net::VmServer> server;

  std::uint16_t port() const { return server->port(); }
};

Endpoint start_endpoint(vm::VirtualMachine& v, int workers) {
  Endpoint ep;
  ep.svc = std::make_unique<service::ExecutionService>(
      v, vm::profiles::by_name(kProfile),
      service::ServiceOptions{.workers = workers});
  for (int t = 0; t < kMixClients; ++t) {
    ep.svc->add_tenant({.name = "tenant-" + std::to_string(t)});
  }
  net::ServerOptions sopt;
  sopt.open_tenants = true;
  ep.server = std::make_unique<net::VmServer>(v, *ep.svc, sopt);
  ep.server->start();
  return ep;
}

/// The VM, its job kinds and the 4-worker endpoint, built and warmed. The
/// endpoint is declared last so it is torn down before the VM.
struct Rig {
  std::unique_ptr<vm::VirtualMachine> vm;
  std::vector<JobKind> kinds;
  Endpoint endpoint;
};

/// Reference results, computed in-process on an attached helper thread.
void compute_references(vm::VirtualMachine& v, std::vector<Spec>& specs) {
  std::thread([&] {
    auto engine = vm::make_engine(v, vm::profiles::by_name(kProfile));
    std::unique_ptr<vm::VMContext> ctx = v.attach_thread(engine.get());
    for (Spec& sp : specs) {
      if (!sp.has_reference_invoke) continue;
      const Slot r = engine->invoke(*ctx, sp.kind.method, sp.ref_args);
      sp.kind.want_raw = r.raw;
    }
    v.detach_thread(*ctx);
  }).join();
}

/// Runs every kind twice through the server so each worker's first jobs
/// are not first compiles; returns false on any wrong value.
bool warm_up(Rig& rig) {
  net::VmClient c;
  c.connect("127.0.0.1", rig.endpoint.port());
  c.hello("tenant-0", "");
  bool ok = true;
  for (int rep = 0; rep < 2; ++rep) {
    for (const JobKind& k : rig.kinds) {
      ok = k.matches(c.call(k.method, k.args)) && ok;
    }
  }
  return ok;
}

Rig make_rig(bool alloc, const RefArgs& refs, bool& setup_ok) {
  Rig rig;
  rig.vm = std::make_unique<vm::VirtualMachine>();
  std::vector<Spec> specs = alloc ? alloc_specs(*rig.vm, refs)
                                  : mix_specs(*rig.vm);
  compute_references(*rig.vm, specs);
  for (Spec& sp : specs) {
    sp.kind.submit_bytes = submit_frame_bytes(sp.kind.args);
    rig.kinds.push_back(std::move(sp.kind));
  }
  rig.endpoint = start_endpoint(*rig.vm, kWorkers);
  setup_ok = warm_up(rig) && setup_ok;
  return rig;
}

/// Seeded job order: consecutive shuffled blocks holding every kind name
/// once, so any prefix is close to the balanced mix; a name with several
/// variants (the ref-argument arrays) draws one of them at random.
class JobOrder {
 public:
  JobOrder(const std::vector<JobKind>& kinds, std::uint64_t seed,
           std::uint64_t stream)
      : rng_(make_rng(seed, stream)) {
    std::map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const auto [it, fresh] = group_of.emplace(kinds[i].name, groups_.size());
      if (fresh) groups_.emplace_back();
      groups_[it->second].push_back(i);
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) block_.push_back(g);
    pos_ = block_.size();  // the first next() shuffles
  }
  std::size_t next() {
    if (pos_ == block_.size()) {
      std::shuffle(block_.begin(), block_.end(), rng_);
      pos_ = 0;
    }
    const std::vector<std::size_t>& g = groups_[block_[pos_++]];
    return g.size() == 1 ? g[0] : g[rng_() % g.size()];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::vector<std::size_t>> groups_;  // kind indices per name
  std::vector<std::size_t> block_;
  std::size_t pos_ = 0;
};

/// Client threads: join() waits for all of them, then rethrows the first
/// exception any of them raised (a dropped connection, a bad frame).
class ThreadGroup {
 public:
  template <class F>
  void spawn(F body) {
    threads_.emplace_back([this, body = std::move(body)]() mutable {
      try {
        body();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
    });
  }
  void join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::exception_ptr error_;
};

struct Sample {
  std::uint32_t kind = 0;
  bool ok = false;
  std::uint8_t outcome = 0;
  double latency_ns = 0;  // client-observed (open loop: from schedule)
  double wire_ns = 0;     // client round trip - queue - run
  double send_ns = 0;     // client-side send_submit span
  double queue_ns = 0;
  double run_ns = 0;
  double bytes = 0;       // SUBMIT + RESULT frame bytes
};

struct Pass {
  std::vector<Sample> samples;
  double wall_s = 0;
  // Open loop only: generator lateness (ms) when the sender was idle, and
  // how many sends were delayed by a previous blocked send instead.
  std::vector<double> late_ms;
  std::size_t backpressured = 0;
  double final_lag_ms = 0;  // last send's start minus its slot, worst conn

  std::size_t ok_count() const {
    std::size_t n = 0;
    for (const Sample& s : samples) n += s.ok ? 1 : 0;
    return n;
  }
};

Sample make_sample(const JobKind& k, std::size_t kind_index,
                   const net::WireResult& r, double latency_ns,
                   double rtt_ns, double send_ns) {
  Sample s;
  s.kind = static_cast<std::uint32_t>(kind_index);
  s.ok = k.matches(r);
  s.outcome = r.outcome;
  s.latency_ns = latency_ns;
  s.queue_ns = static_cast<double>(r.queue_ns);
  s.run_ns = static_cast<double>(r.run_ns);
  s.wire_ns = rtt_ns - s.queue_ns - s.run_ns;
  s.send_ns = send_ns;
  s.bytes = static_cast<double>(k.submit_bytes + result_frame_bytes(r));
  return s;
}

/// Closed loop: `clients` connections to `port`, each keeping `depth` jobs
/// in flight for `seconds`, then draining.
Pass closed_loop(const std::vector<JobKind>& kinds, std::uint16_t port,
                 int clients, int depth, double seconds, std::uint64_t seed,
                 std::uint64_t stream, double* rss_mb = nullptr) {
  Pass pass;
  std::mutex mu;
  std::atomic<std::size_t> done{0};
  std::atomic<std::int64_t> last_end{0};
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  ThreadGroup threads;
  for (int c = 0; c < clients; ++c) {
    threads.spawn([&, c] {
      net::VmClient client;
      client.connect("127.0.0.1", port);
      client.hello("tenant-" + std::to_string(c), "");
      JobOrder order(kinds, seed, stream + static_cast<unsigned>(c));
      struct Pending {
        std::size_t kind;
        std::int64_t sent;
        double send_ns;
      };
      std::unordered_map<std::uint64_t, Pending> pending;
      std::vector<Sample> local;
      while (true) {
        const std::int64_t now = now_ns();
        if (now < stop && static_cast<int>(pending.size()) < depth) {
          const std::size_t k = order.next();
          const std::int64_t t0 = now_ns();
          const std::uint64_t id =
              client.send_submit(kinds[k].method, kinds[k].args);
          const std::int64_t t1 = now_ns();
          hpcnet::vm::telemetry::record_span("client", "send_submit", t0, t1);
          pending[id] = {k, t0, static_cast<double>(t1 - t0)};
          continue;
        }
        if (pending.empty()) break;
        const net::WireResult r = client.recv_result();
        const std::int64_t t = now_ns();
        const auto it = pending.find(r.request_id);
        if (it == pending.end()) throw std::runtime_error("unknown request id");
        const double rtt = static_cast<double>(t - it->second.sent);
        local.push_back(make_sample(kinds[it->second.kind], it->second.kind,
                                    r, rtt, rtt, it->second.send_ns));
        pending.erase(it);
        if (done.fetch_add(1) + 1 == kMixRssJobs && rss_mb != nullptr) {
          *rss_mb = peak_rss_mb();
        }
        std::int64_t prev = last_end.load();
        while (t > prev && !last_end.compare_exchange_weak(prev, t)) {
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      pass.samples.insert(pass.samples.end(), local.begin(), local.end());
    });
  }
  threads.join();
  pass.wall_s = static_cast<double>(last_end.load() - start) * 1e-9;
  return pass;
}

/// Open loop at `rate` jobs/s over kAllocConnections connections to
/// `port`, each a sender on a seeded Poisson schedule plus a receiver.
Pass open_loop(const std::vector<JobKind>& kinds, std::uint16_t port,
               double rate, double seconds, std::uint64_t seed,
               std::uint64_t stream) {
  struct Conn {
    std::vector<std::int64_t> offset_ns;  // scheduled send, from start
    std::vector<std::size_t> kind;
    std::vector<std::atomic<std::int64_t>> sent;  // actual send start
    std::vector<double> send_ns;
    std::vector<Sample> samples;
    std::vector<std::size_t> sample_index;  // schedule slot of each sample
    std::vector<double> late_ms;
    std::size_t backpressured = 0;
    double final_lag_ms = 0;
    std::int64_t last_recv = 0;
  };
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kAllocConnections; ++c) {
    auto conn = std::make_unique<Conn>();
    std::mt19937_64 rng = make_rng(seed, stream + static_cast<unsigned>(c));
    std::exponential_distribution<double> gap(rate / kAllocConnections);
    JobOrder order(kinds, seed, stream + 100 + static_cast<unsigned>(c));
    double t = gap(rng);
    while (t < seconds) {
      conn->offset_ns.push_back(static_cast<std::int64_t>(t * 1e9));
      conn->kind.push_back(order.next());
      t += gap(rng);
    }
    conn->sent = std::vector<std::atomic<std::int64_t>>(conn->offset_ns.size());
    conn->send_ns.assign(conn->offset_ns.size(), 0);
    conns.push_back(std::move(conn));
  }

  std::vector<net::VmClient> clients(kAllocConnections);
  for (int c = 0; c < kAllocConnections; ++c) {
    clients[static_cast<std::size_t>(c)].connect("127.0.0.1", port);
    clients[static_cast<std::size_t>(c)].hello("tenant-" + std::to_string(c),
                                               "");
  }
  const std::int64_t start = now_ns() + 20'000'000;  // threads are up by then
  ThreadGroup threads;
  for (int c = 0; c < kAllocConnections; ++c) {
    Conn& conn = *conns[static_cast<std::size_t>(c)];
    net::VmClient& client = clients[static_cast<std::size_t>(c)];
    threads.spawn([&] {  // sender
      std::int64_t prev_done = start;
      bool prev_blocked = false;
      for (std::size_t i = 0; i < conn.offset_ns.size(); ++i) {
        const std::int64_t due = start + conn.offset_ns[i];
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        const std::int64_t t0 = now_ns();
        if (prev_blocked && prev_done > due) {
          ++conn.backpressured;  // a full socket held the previous send
        } else {
          conn.late_ms.push_back(ns_to_ms(static_cast<double>(t0 - due)));
        }
        conn.sent[i].store(t0, std::memory_order_release);
        conn.final_lag_ms = ns_to_ms(static_cast<double>(t0 - due));
        const JobKind& k = kinds[conn.kind[i]];
        const std::uint64_t id = client.send_submit(k.method, k.args);
        prev_done = now_ns();
        prev_blocked = prev_done - t0 > kBlockedSendNs;
        conn.send_ns[i] = static_cast<double>(prev_done - t0);
        hpcnet::vm::telemetry::record_span("client", "send_submit", t0,
                                           prev_done);
        if (id != i + 1) throw std::runtime_error("unexpected request id");
      }
    });
    threads.spawn([&] {  // receiver
      for (std::size_t n = 0; n < conn.offset_ns.size(); ++n) {
        const net::WireResult r = client.recv_result();
        const std::int64_t t = now_ns();
        const std::size_t i = static_cast<std::size_t>(r.request_id - 1);
        if (i >= conn.offset_ns.size()) {
          throw std::runtime_error("unknown request id");
        }
        const std::int64_t sent = conn.sent[i].load(std::memory_order_acquire);
        const double due = static_cast<double>(start + conn.offset_ns[i]);
        conn.samples.push_back(make_sample(
            kinds[conn.kind[i]], conn.kind[i], r,
            static_cast<double>(t) - due, static_cast<double>(t - sent),
            0.0));
        conn.sample_index.push_back(i);
        conn.last_recv = t;
      }
    });
  }
  threads.join();

  Pass pass;
  std::int64_t end = start;
  for (auto& conn : conns) {
    // send_ns was written by the sender; both threads have joined.
    for (std::size_t j = 0; j < conn->samples.size(); ++j) {
      conn->samples[j].send_ns = conn->send_ns[conn->sample_index[j]];
      pass.samples.push_back(conn->samples[j]);
    }
    pass.late_ms.insert(pass.late_ms.end(), conn->late_ms.begin(),
                        conn->late_ms.end());
    pass.backpressured += conn->backpressured;
    pass.final_lag_ms = std::max(pass.final_lag_ms, conn->final_lag_ms);
    end = std::max(end, conn->last_recv);
  }
  pass.wall_s = static_cast<double>(end - start) * 1e-9;
  return pass;
}

/// One field of every sample, in ms (the Sample fields are ns).
std::vector<double> field_ms(const Pass& p, double Sample::*f) {
  std::vector<double> v;
  v.reserve(p.samples.size());
  for (const Sample& s : p.samples) v.push_back(ns_to_ms(s.*f));
  return v;
}

std::string fmt(double v) {
  std::ostringstream o;
  o.precision(4);
  o << std::fixed << v;
  return o.str();
}

/// Unique kind names in first-seen order.
std::vector<std::string> kind_names(const std::vector<JobKind>& kinds) {
  std::vector<std::string> names;
  for (const JobKind& k : kinds) {
    if (std::find(names.begin(), names.end(), k.name) == names.end()) {
      names.push_back(k.name);
    }
  }
  return names;
}

/// Median of `field` (run time by default) per kind name, ms.
std::map<std::string, double> run_ms_by_kind(
    const std::vector<JobKind>& kinds, const Pass& p,
    double Sample::*field = &Sample::run_ns) {
  std::map<std::string, std::vector<double>> by;
  for (const Sample& s : p.samples) {
    if (s.ok) by[kinds[s.kind].name].push_back(ns_to_ms(s.*field));
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : by) out[name] = median(v);
  return out;
}

Pass main_pass(const Rig& rig, const Options& opt, Mode mode, double seconds,
               std::uint64_t stream, double* rss_mb = nullptr) {
  const std::uint16_t port = rig.endpoint.port();
  switch (mode) {
    case Mode::Mix:
      return closed_loop(rig.kinds, port, kMixClients, kMixDepth, seconds,
                         opt.seed, stream, rss_mb);
    case Mode::Alloc:
      return open_loop(rig.kinds, port, kAllocRate, seconds, opt.seed,
                       stream);
    case Mode::Rtt:
      break;
  }
  return closed_loop(rig.kinds, port, 1, 1, seconds, opt.seed, stream);
}

/// service-rtt's measurement: closed-loop segments of about kRttSegmentS,
/// each with every thread of the process (the caller, the server's event
/// loop and its workers) on the next CPU of a rotation, which leaves the
/// round trip's thread hand-offs on one CPU. Unpinned, the scheduler's
/// placement of those threads and the wake-up latency of idle vCPUs set the
/// run's level: ten 10-second runs spread 17% (IQR / median). Returns every
/// sample as one pass; `fastest_ms` gets the fastest segment's mean over
/// job kinds of the per-kind median latency (per kind, so that a segment's
/// job mix cannot move it between the kinds' latency modes).
Pass rtt_segments(const Rig& rig, const Options& opt, double& fastest_ms) {
  CpuRotation cpus(CpuRotation::Scope::Process);
  const int n = std::max(1, static_cast<int>(opt.seconds / kRttSegmentS));
  Pass all;
  std::vector<double> segment_ms;
  for (int s = 0; s < n; ++s) {
    cpus.next();
    const Pass seg = closed_loop(rig.kinds, rig.endpoint.port(), 1, 1,
                                 opt.seconds / n, opt.seed,
                                 10 + static_cast<std::uint64_t>(s));
    double sum = 0;
    const auto by_kind = run_ms_by_kind(rig.kinds, seg, &Sample::latency_ns);
    for (const auto& [name, ms] : by_kind) sum += ms;
    segment_ms.push_back(sum / static_cast<double>(by_kind.size()));
    all.samples.insert(all.samples.end(), seg.samples.begin(),
                       seg.samples.end());
    all.wall_s += seg.wall_s;
  }
  fastest_ms = minimum(segment_ms);
  return all;
}

/// Validates a pass into the report, and flags an open-loop pass whose
/// generator fell behind.
void account(const Pass& p, Report& report) {
  for (const Sample& s : p.samples) report.check(s.ok);
  if (p.late_ms.empty()) return;
  const std::vector<double>& late = p.late_ms;
  const double mx = *std::max_element(late.begin(), late.end());
  const double med = median(late);
  const double p99 = tail_or_max(late, 99, "generator lateness", report);
  report.note("generator lateness: median " + fmt(med) + " ms, p99 " +
              fmt(p99) + " ms, max " + fmt(mx) + " ms over " +
              std::to_string(late.size()) + " idle-sender sends; " +
              std::to_string(p.backpressured) +
              " sends delayed by a blocked previous send (server "
              "backpressure); last send " + fmt(p.final_lag_ms) +
              " ms after its slot");
  if (med > kMaxMedianLateMs || p.final_lag_ms > kMaxFinalLagMs) {
    report.correct = false;
    report.note("INVALID: the load generator fell behind its schedule");
  }
}

Report run_service(const Options& opt, Mode mode) {
  Report report;
  const bool alloc = mode != Mode::Mix;  // the short allocating job mix
  const RefArgs refs = alloc ? make_ref_args(opt.seed) : RefArgs{};
  bool setup_ok = true;
  const int per_round = alloc ? kAllocSetupsPerRound : kMixSetupsPerRound;
  // Replaced through optional so the old rig is destroyed in member order
  // (endpoint before VM); member-wise move assignment would free the VM
  // while the old service still runs on it.
  std::optional<Rig> rig;
  std::vector<double> setups;
  time_setups(kSetupRoundsBefore, per_round, [&] {
    rig.reset();
    rig.emplace(make_rig(alloc, refs, setup_ok));
  }, setups);
  if (!setup_ok) report.note("warm-up jobs returned wrong values");

  if (!opt.trace) {
    double rss_mb = 0;  // set at kMixRssJobs jobs; the alloc mix is GC-bound
    double op_ms = 0;
    const Pass p = mode == Mode::Rtt
                       ? rtt_segments(*rig, opt, op_ms)
                       : main_pass(*rig, opt, mode, opt.seconds, 10, &rss_mb);
    account(p, report);
    if (rss_mb == 0) rss_mb = peak_rss_mb();
    time_setups(kSetupRoundsAfter, per_round,
                [&] { make_rig(alloc, refs, setup_ok); }, setups);
    const std::vector<double> lat = field_ms(p, &Sample::latency_ns);
    report.add("setup_s", median(setups), "s");
    // service-rtt: the fastest segment (rtt_segments); the two loads: the
    // client-observed p50.
    report.add("op_ms", mode == Mode::Rtt ? op_ms : median(lat), "ms");
    add_common_end_to_end(report, rss_mb);
    report.note("throughput " +
                fmt(static_cast<double>(p.ok_count()) / p.wall_s) +
                " jobs/s; client-observed latency p50 " + fmt(median(lat)) +
                " ms, p99 " + fmt(tail_or_max(lat, 99, "latency", report)) +
                " ms");
    report.note("host disturbance: latency IQR / median within the run " +
                fmt(iqr_share(lat) * 100) + "%");
    report.note(opt.workload + ": " + std::to_string(lat.size()) +
                " latency samples over " + fmt(p.wall_s) + " s, " +
                std::to_string(kWorkers) + " workers" +
                (mode == Mode::Alloc
                     ? ", offered " + fmt(kAllocRate) + " jobs/s"
                 : mode == Mode::Mix ? ", 4 clients x depth 2"
                                     : ", 1 client x depth 1"));
    report.correct = report.correct && report.failed == 0 && setup_ok;
    return report;
  }

  // Traced run: untraced 4-worker pass (per-layer timings), 1-worker pass
  // (scaling), traced 4-worker pass (telemetry counts, spans, overhead).
  const Pass plain = main_pass(*rig, opt, mode, opt.seconds * 0.4, 10);
  account(plain, report);
  Pass single;
  {
    // A second service with one worker on the same VM and code cache.
    const Endpoint one = start_endpoint(*rig->vm, 1);
    single = closed_loop(rig->kinds, one.port(), 1, kMixDepth,
                         opt.seconds * 0.2, opt.seed, 20);
    account(single, report);
  }
  begin_traced_phase();
  const Pass traced = main_pass(*rig, opt, mode, opt.seconds * 0.4, 30);
  const telemetry::Snapshot snap = end_traced_phase();
  account(traced, report);

  const std::vector<double> queue_ms = field_ms(plain, &Sample::queue_ns);
  report.add("service.queue_ms.p50", median(queue_ms), "ms");
  report.add("service.queue_ms.p99",
             tail_or_max(queue_ms, 99, "queue wait", report), "ms");
  const auto run4 = run_ms_by_kind(rig->kinds, plain);
  const auto run1 = run_ms_by_kind(rig->kinds, single);
  double sum1 = 0, sum4 = 0;
  for (const std::string& name : kind_names(rig->kinds)) {
    const double r4 = run4.count(name) ? run4.at(name) : 0;
    const double r1 = run1.count(name) ? run1.at(name) : 0;
    report.add("service.run_ms." + name, r4, "ms");
    sum4 += r4;
    sum1 += r1;
  }
  double run_total = 0;
  for (const Sample& s : plain.samples) run_total += s.run_ns;
  report.add("service.busy_frac",
             run_total * 1e-9 / (kWorkers * plain.wall_s), "ratio");
  report.add("service.scaling_eff", sum4 > 0 ? sum1 / sum4 : 0, "ratio");
  static const char* const kOutcomes[] = {"completed", "killed_fuel",
                                          "killed_memory", "faulted",
                                          "rejected", "killed_deadline"};
  std::size_t outcome_count[std::size(kOutcomes)] = {};
  for (const Sample& s : plain.samples) {
    if (s.outcome < std::size(kOutcomes)) ++outcome_count[s.outcome];
  }
  for (std::size_t o = 0; o < std::size(kOutcomes); ++o) {
    report.add(std::string("service.outcome.") + kOutcomes[o],
               static_cast<double>(outcome_count[o]), "count");
  }
  const std::vector<double> wire_ms = field_ms(plain, &Sample::wire_ns);
  report.add("net.wire_ms.p50", median(wire_ms), "ms");
  report.add("net.wire_ms.p99", tail_or_max(wire_ms, 99, "wire", report),
             "ms");
  double bytes = 0;
  for (const Sample& s : plain.samples) bytes += s.bytes;
  report.add("net.bytes_per_job",
             bytes / static_cast<double>(std::max<std::size_t>(
                          plain.samples.size(), 1)),
             "bytes");
  add_heap_layer(report, snap, static_cast<double>(traced.ok_count()),
                 static_cast<double>(rig->vm->heap().stats().live_bytes));
  // Tracing overhead on job execution: per-kind median run times, traced
  // vs untraced 4-worker pass (the mix and the load are the same).
  double sum_traced = 0;
  for (const auto& [name, ms] : run_ms_by_kind(rig->kinds, traced)) {
    sum_traced += ms;
  }
  report.add("trace.overhead_pct", (sum_traced / sum4 - 1) * 100, "%");

  // Stage reconciliation (means over the untraced pass, ms).
  const double lat = mean(field_ms(plain, &Sample::latency_ns));
  const double q = mean(field_ms(plain, &Sample::queue_ns));
  const double r = mean(field_ms(plain, &Sample::run_ns));
  const double send = mean(field_ms(plain, &Sample::send_ns));
  const double wire = mean(field_ms(plain, &Sample::wire_ns));
  report.note("reconcile service (mean ms): client latency " + fmt(lat) +
              " = client send " + fmt(send) + " + queue " + fmt(q) +
              " + run " + fmt(r) + " + unexplained " +
              fmt(lat - send - q - r) +
              " (wire share, latency - queue - run: " + fmt(wire) +
              (mode == Mode::Alloc
                   ? "; open-loop latency also holds generator lateness"
                   : "") +
              ")");
  report.note("scaling: per-job run time, mean of per-kind medians: " +
              fmt(sum1) + " ms at 1 worker vs " + fmt(sum4) + " ms at " +
              std::to_string(kWorkers) + " workers; 1-worker pass " +
              std::to_string(single.samples.size()) + " jobs");
  report.correct = report.correct && report.failed == 0 && setup_ok;
  return report;
}

}  // namespace

Report run_service_mix(const Options& opt) {
  return run_service(opt, Mode::Mix);
}
Report run_service_alloc(const Options& opt) {
  return run_service(opt, Mode::Alloc);
}
Report run_service_rtt(const Options& opt) {
  return run_service(opt, Mode::Rtt);
}

}  // namespace perfbench

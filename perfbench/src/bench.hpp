// Shared plumbing of the benchmark's workloads: options, the result a
// workload hands back, clocks, seeded generators and the span helper.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "vm/execution.hpp"
#include "vm/telemetry/telemetry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // chrome trace written here by a traced run
  std::string revision = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload returns. `attempted`/`failed` count validated
/// operations; a wrong value counts as failed exactly like a refused or
/// faulted one. `notes` are informational lines printed before the result.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records one validated operation.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double ns_to_ms(double ns) { return ns * 1e-6; }
inline double ns_to_us(double ns) { return ns * 1e-3; }

/// Deterministic per-purpose generator: the same seed and stream give the
/// same inputs on every host.
inline std::mt19937_64 make_rng(std::uint64_t seed, std::uint64_t stream) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream)};
  return std::mt19937_64(seq);
}

/// A benchmark-side span around one call into a layer. Recorded into the
/// telemetry trace (a no-op unless tracing is on) and returns the elapsed
/// nanoseconds so callers can keep their own samples as well.
template <class F>
std::int64_t span(const char* layer, const std::string& name, F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  const std::int64_t t1 = now_ns();
  hpcnet::vm::telemetry::record_span(layer, name, t0, t1);
  return t1 - t0;
}

/// Moves the calling thread (Scope::Thread) or every thread of the process
/// (Scope::Process) round-robin over the CPUs the process may run on, one
/// CPU per next(); the destructor restores the original affinity. The
/// workloads score their fast end (best invocation, fastest decile, fastest
/// segment), and on a shared host that end depends on the CPU: on one
/// 4-vCPU host the same SciMark pass took 36 ms on two vCPUs and 48 ms on a
/// third, for minutes at a time, so an unpinned run moved by a third with
/// the CPU the scheduler happened to keep it on. Rotating gives every run
/// samples from every CPU, and the fast end comes from whichever CPU is
/// least disturbed while the run lasts.
class CpuRotation {
 public:
  enum class Scope { Thread, Process };
  explicit CpuRotation(Scope scope = Scope::Thread);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();
  std::size_t size() const { return cpus_.size(); }

 private:
  void pin(const std::vector<int>& cpus);

  Scope scope_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// setup_s is the median over set-up rounds of each round's fastest
/// set-up, in seconds. kSetupRoundsBefore rounds run before the measurement
/// (the last set-up is the state measured) and kSetupRoundsAfter during or
/// after it, so the median spans the run instead of its first second.
/// Taking each round's fastest drops the slow streaks other work on a
/// shared host causes: single set-ups switched between ~7.8 and ~11 ms in
/// streaks lasting up to seconds within one process, so the workloads that
/// can spread a round's set-ups through their measurement do.
inline constexpr int kSetupRoundsBefore = 2;
inline constexpr int kSetupRoundsAfter = 3;

/// Runs `rounds` rounds of `per_round` timed calls of `setup` and appends
/// each round's fastest wall time, in seconds, to `round_best`. With `cpus`,
/// each call runs on the next CPU of the rotation.
void time_setups(int rounds, int per_round, const std::function<void()>& setup,
                 std::vector<double>& round_best,
                 CpuRotation* cpus = nullptr);

/// One set-up round spread through a stretch of measurement: tick() between
/// iterations times one set-up whenever `interval_s` has passed since the
/// last; close_round() appends the round's fastest to `round_best` (timing
/// one set-up first if the stretch was too short for any).
class SetupSampler {
 public:
  SetupSampler(std::function<void()> setup, double interval_s,
               std::vector<double>& round_best)
      : setup_(std::move(setup)),
        interval_ns_(static_cast<std::int64_t>(interval_s * 1e9)),
        round_best_(round_best),
        next_ns_(now_ns() + interval_ns_ / 2) {}

  void tick() {
    if (now_ns() >= next_ns_) {
      time_one();
      next_ns_ = now_ns() + interval_ns_;
    }
  }
  void close_round() {
    if (round_.empty()) time_one();
    round_best_.push_back(minimum(round_));
    round_.clear();
  }

 private:
  void time_one() {
    const std::int64_t t0 = now_ns();
    setup_();
    round_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::function<void()> setup_;
  std::int64_t interval_ns_;
  std::vector<double>& round_best_;
  std::vector<double> round_;
  std::int64_t next_ns_;
};

/// Percentile p of `samples` in the samples' own unit; when the tail is not
/// resolved (fewer than kMinBeyond samples beyond it) the maximum is used
/// and a note says so.
double tail_or_max(const std::vector<double>& samples, double p,
                   const std::string& what, Report& report);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Adds peak_rss_mb, the end-to-end metric every workload reports the
/// same way; each workload adds setup_s and op_ms itself. Call after
/// measuring. The heap
/// of a GC-free workload grows with the work done, so those workloads pass
/// the peak RSS they sampled after a fixed amount of work (`rss_mb`);
/// otherwise (0) the process peak so far is used.
void add_common_end_to_end(Report& report, double rss_mb = 0);

/// The metrics a result carries, (name, unit), as BENCHMARK.json names
/// them: every workload reports every end-to-end metric untraced and every
/// per-layer metric traced.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Checks a workload's report against the catalogue above (throws
/// std::logic_error on a missing end-to-end metric or a unit mismatch) and,
/// for a traced run, adds each per-layer metric of a layer the workload
/// does not exercise as 0, noting which. Metrics outside the catalogue (the
/// ungated workloads' own) pass through.
void complete_metrics(Report& report, bool trace);

/// scimark-<profile>: SciMark small model on one engine profile.
Report run_scimark(const Options& opt, const std::string& profile);
/// coldstart (warm_boot false) or warmstart (true).
Report run_startup(const Options& opt, bool warm_boot);
Report run_service_mix(const Options& opt);
Report run_service_alloc(const Options& opt);
Report run_service_rtt(const Options& opt);

/// Host facts printed with every result, including each SciMark kernel's
/// working set at the small model beside the last-level cache size.
std::string host_block_json(const Options& opt);

/// The heap layer's per-layer metrics, shared by every workload: GCs per
/// 1000 operations (`ops` = validated operations in the traced phase), the
/// p99 GC pause and safepoint stall from the telemetry histograms, and the
/// VM's live heap bytes after the run.
void add_heap_layer(Report& report, const hpcnet::vm::telemetry::Snapshot& s,
                    double ops, double live_bytes);

/// Traced phases: telemetry is reset and switched on for the phase, and
/// switched off again at its end; the collected data stays in memory until
/// main() writes the trace once, after the workload returns.
void begin_traced_phase();
hpcnet::vm::telemetry::Snapshot end_traced_phase();

}  // namespace perfbench

// Workloads "scimark-<profile>": the paper's Graphs 9-11, one workload per
// tier. All five SciMark kernels at the small model, single-threaded and
// in-process, on one engine profile: clr11 (optimizing), mono023
// (baseline), rotor10 (interpreter) or clr11.vec (vector tier); any other
// profile name works too but is not gated. Every invocation is timed on its
// own after a warm-up pass and the kernels run in a seeded shuffled order
// each round. The workload's op_ms is one SciMark pass scored from each
// kernel's best invocation time (the sum over kernels); the traced run
// reports the per-kernel times and the SciMark composite (mean of kernel
// MFlops) from the same best times. Interference from other work on the
// host only ever slows an invocation down: on a shared host it moved
// per-kernel medians by 20-30% between runs in which the best invocation
// moved 2-3%, so the best time is taken as the kernel's cost.
// Every checksum is validated against the native kernels/ twin.
#include <algorithm>
#include <cmath>
#include <cctype>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "cil/suite.hpp"

namespace perfbench {

namespace {

using hpcnet::cil::ScimarkResult;
using hpcnet::cil::ScimarkSizes;
namespace vm = hpcnet::vm;
namespace telemetry = hpcnet::vm::telemetry;

const char* const kKernels[] = {"FFT", "SOR", "MonteCarlo", "Sparse", "LU"};
constexpr int kNumKernels = 5;
constexpr int kSetupsPerRound = 8;
constexpr double kSetupIntervalS = 0.5;  // spread set-ups during measurement
constexpr int kMinRounds = 5;

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

struct Rig {
  std::unique_ptr<vm::VirtualMachine> vm;
  std::unique_ptr<vm::Engine> engine;
};

/// Fresh VM and engine, kernels built and compiled by one warm-up pass at
/// the test-model sizes: every kernel method is compiled on its first call
/// whatever the size, and a small-model pass would make set-up mostly
/// kernel run time (rotor10 set-up: ~165 ms with it, ~4 ms without), which
/// host interference moves far more than the build and compile it is
/// meant to time. measure() runs each kernel once at the measured size before
/// timing.
Rig make_rig(const std::string& profile) {
  Rig rig;
  rig.vm = std::make_unique<vm::VirtualMachine>();
  rig.engine = vm::make_engine(*rig.vm, vm::profiles::by_name(profile));
  hpcnet::cil::run_scimark_cil(*rig.vm, *rig.engine,
                               ScimarkSizes::test_model(), false);
  return rig;
}

struct Cells {
  // seconds[kernel]: one sample per timed invocation.
  std::vector<double> seconds[kNumKernels];
  int rounds = 0;

  void append(const Cells& o) {
    for (int k = 0; k < kNumKernels; ++k) {
      seconds[k].insert(seconds[k].end(), o.seconds[k].begin(),
                        o.seconds[k].end());
    }
    rounds += o.rounds;
  }
};

/// Invocations of each kernel per round: kernels shorter than kCellTargetS
/// run several times, so short kernels (the vector tier's SOR and Sparse)
/// get as many chances at an undisturbed invocation as long ones.
constexpr double kCellTargetS = 0.008;
constexpr int kMaxRepsPerRound = 8;

/// One timed, validated invocation of `kernel`; returns its seconds.
double invoke_cell(Rig& rig, const std::string& profile,
                   const ScimarkSizes& sizes, const ScimarkResult& ref, int k,
                   Report& report) {
  const ScimarkResult r = hpcnet::cil::run_scimark_cil(
      *rig.vm, *rig.engine, sizes, false, kKernels[k]);
  const double want = ref.kernels[static_cast<std::size_t>(k)].checksum;
  const double got = r.kernels.front().checksum;
  const bool ok =
      std::fabs(got - want) <= 1e-9 * std::max(std::fabs(want), 1e-30);
  report.check(ok);
  if (!ok) {
    std::ostringstream o;
    o.precision(17);
    o << "wrong checksum: " << profile << " " << kKernels[k] << " got "
      << got << " want " << want;
    report.note(o.str());
  }
  return r.kernels.front().seconds;
}

/// Times rounds of every kernel until `budget_s` has passed (and at least
/// kMinRounds rounds ran), each round on the next CPU of `cpus`;
/// `sampler`, when given, ticks after every round.
Cells measure(Rig& rig, const std::string& profile, const ScimarkSizes& sizes,
              const ScimarkResult& ref, double budget_s, std::mt19937_64& rng,
              CpuRotation& cpus, Report& report,
              SetupSampler* sampler = nullptr) {
  Cells cells;
  std::vector<int> order;
  int reps[kNumKernels];
  for (int k = 0; k < kNumKernels; ++k) {
    order.push_back(k);
    // Sized from one untimed invocation per kernel, which also warms the
    // caches at the measured size.
    const double s = invoke_cell(rig, profile, sizes, ref, k, report);
    reps[k] = std::clamp(static_cast<int>(kCellTargetS / s), 1,
                         kMaxRepsPerRound);
  }
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while (cells.rounds < kMinRounds || now_ns() < end) {
    cpus.next();
    std::shuffle(order.begin(), order.end(), rng);
    for (const int k : order) {
      for (int i = 0; i < reps[k]; ++i) {
        cells.seconds[k].push_back(
            invoke_cell(rig, profile, sizes, ref, k, report));
      }
    }
    ++cells.rounds;
    if (sampler != nullptr) sampler->tick();
  }
  return cells;
}

/// SciMark composite: mean over kernels of flops / best invocation time.
double composite(const Cells& c, const double* flops) {
  double sum = 0;
  for (int k = 0; k < kNumKernels; ++k) {
    sum += flops[k] / minimum(c.seconds[k]) * 1e-6;
  }
  return sum / kNumKernels;
}

/// One SciMark pass from each kernel's best invocation, seconds.
double pass_seconds(const Cells& c) {
  double t = 0;
  for (int k = 0; k < kNumKernels; ++k) t += minimum(c.seconds[k]);
  return t;
}

}  // namespace

Report run_scimark(const Options& opt, const std::string& profile) {
  Report report;
  const ScimarkSizes sizes = ScimarkSizes::small_model();
  const ScimarkResult ref = hpcnet::cil::run_scimark_native(sizes);
  double flops[kNumKernels];
  for (int k = 0; k < kNumKernels; ++k) {
    const auto& n = ref.kernels[static_cast<std::size_t>(k)];
    flops[k] = n.mflops * 1e6 * n.seconds;
  }
  std::mt19937_64 rng = make_rng(opt.seed, 1);

  // The rig is replaced through optional so the old engine always goes
  // before its VM (member-wise move assignment would free the VM first).
  std::optional<Rig> rig;
  std::vector<double> setups;
  CpuRotation cpus;
  time_setups(kSetupRoundsBefore, kSetupsPerRound, [&] {
    rig.reset();
    rig.emplace(make_rig(profile));
  }, setups, &cpus);
  // The VM never collects here, so its heap grows with every round; the
  // footprint is taken after set-up, before timing-dependent work.
  const double rss_mb = peak_rss_mb();

  if (!opt.trace) {
    // The measurement is cut into chunks, each one set-up round whose
    // set-ups are spread through it.
    Cells c;
    SetupSampler sampler([&] { make_rig(profile); }, kSetupIntervalS,
                         setups);
    for (int chunk = 0; chunk < kSetupRoundsAfter; ++chunk) {
      c.append(measure(*rig, profile, sizes, ref,
                       opt.seconds / kSetupRoundsAfter, rng, cpus, report,
                       &sampler));
      sampler.close_round();
    }
    report.add("setup_s", median(setups), "s");
    report.add("op_ms", pass_seconds(c) * 1e3, "ms");
    add_common_end_to_end(report, rss_mb);
    std::vector<double> spreads;
    for (int k = 0; k < kNumKernels; ++k) {
      spreads.push_back(iqr_share(c.seconds[k]));
    }
    report.note("host disturbance: invocation-time IQR / median within the "
                "run, mean over kernels " +
                std::to_string(mean(spreads) * 100) + "%");
    report.note("scimark " + profile + ": composite " +
                std::to_string(composite(c, flops)) + " MFlops; " +
                std::to_string(c.rounds) +
                " rounds, each kernel's score is the best of at least that "
                "many invocations; GCs during measurement: " +
                std::to_string(rig->vm->gc_count()));
  } else {
    // Untraced half: per-kernel invoke times and the overhead baseline.
    const Cells plain = measure(*rig, profile, sizes, ref, opt.seconds / 2,
                                rng, cpus, report);
    for (int k = 0; k < kNumKernels; ++k) {
      report.add("engine." + lower(kKernels[k]) + "_us",
                 minimum(plain.seconds[k]) * 1e6, "us");
    }
    report.add("engine.mflops", composite(plain, flops), "MFlops");
    // Traced half: the same rounds with telemetry collecting.
    const std::size_t gc_before = rig->vm->gc_count();
    begin_traced_phase();
    const Cells traced = measure(*rig, profile, sizes, ref, opt.seconds / 2,
                                 rng, cpus, report);
    const telemetry::Snapshot snap = end_traced_phase();
    const double invocations = traced.rounds * kNumKernels;
    report.add("vec.loops_entered",
               static_cast<double>(
                   snap.counter(telemetry::Counter::VecLoopsEntered)) /
                   traced.rounds,
               "count");
    add_heap_layer(report, snap, invocations,
                   static_cast<double>(rig->vm->heap().stats().live_bytes));
    report.add("trace.overhead_pct",
               (pass_seconds(traced) / pass_seconds(plain) - 1.0) * 100.0,
               "%");
    // The native reference composite at the same sizes.
    std::vector<double> native[kNumKernels];
    for (int i = 0; i < 31; ++i) {
      const ScimarkResult n = hpcnet::cil::run_scimark_native(sizes);
      for (int k = 0; k < kNumKernels; ++k) {
        native[k].push_back(n.kernels[static_cast<std::size_t>(k)].seconds);
      }
    }
    double sum = 0;
    for (int k = 0; k < kNumKernels; ++k) {
      sum += flops[k] / minimum(native[k]) * 1e-6;
    }
    report.add("native.mflops", sum / kNumKernels, "MFlops");
    report.note("scimark " + profile + " traced: " +
                std::to_string(plain.rounds) + " untraced + " +
                std::to_string(traced.rounds) +
                " traced rounds; GCs in traced half: " +
                std::to_string(rig->vm->gc_count() - gc_before));
  }
  report.correct = report.failed == 0;
  return report;
}

}  // namespace perfbench

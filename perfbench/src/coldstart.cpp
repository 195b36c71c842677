// Workloads "coldstart" and "warmstart": time to first results on fresh
// VMs. The program set is the five SciMark kernels at test-model sizes plus
// the Java Grande section 2 kernels (fib, sieve, hanoi, heapsort, crypt) at
// small inputs. Each iteration runs the set once on a fresh VM whose module
// is already built:
//   coldstart — clr11 from nothing: every first call verifies and compiles;
//   warmstart — the VM boots from the serialized code archive captured
//               during set-up (deserialize_archives + attach_archive), then
//               runs.
// The program order is reshuffled from the seed for every VM. op_ms is the
// fastest decile (p10) across iterations: interference from other work on
// a shared host only adds time, and it moved the median by ~12% between
// runs while p10 over hundreds of VMs stayed within ~4%. Every result is
// validated against the native kernels/ twin.
//
// The traced run of either workload boots both kinds of VM and adds the
// per-layer split. Its untraced half times Σ verify and Σ regir::compile
// over the set on a separate fresh module, a steady second pass on each
// cold VM, and deserialize / attach / run of the warm boots; its traced
// half supplies the telemetry per-pass JIT times of the cold runs and the
// GC counts.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "cil/jg.hpp"
#include "cil/sm.hpp"
#include "cil/suite.hpp"
#include "kernels/jgf.hpp"
#include "kernels/scimark.hpp"
#include "vm/archive.hpp"
#include "vm/regcompile.hpp"
#include "vm/serialize.hpp"
#include "vm/verifier.hpp"

namespace perfbench {

namespace {

namespace vm = hpcnet::vm;
namespace cil = hpcnet::cil;
namespace kernels = hpcnet::kernels;
namespace telemetry = hpcnet::vm::telemetry;
using vm::Slot;

constexpr int kSetupsPerRound = 5;
constexpr double kSetupIntervalS = 0.5;  // spread set-ups during measurement
constexpr int kMinIterations = 10;
const char* const kProfile = "clr11";

enum class Ret { F64, I64, I32 };

struct Program {
  const char* name;
  std::int32_t (*build)(vm::VirtualMachine&);
  std::vector<Slot> args;
  Ret ret;
  double want_f64 = 0;
  std::int64_t want_int = 0;

  bool matches(Slot r) const {
    switch (ret) {
      case Ret::F64:
        return std::fabs(r.f64 - want_f64) <=
               1e-9 * std::max(std::fabs(want_f64), 1e-30);
      case Ret::I64:
        return r.i64 == want_int;
      case Ret::I32:
        return r.i32 == want_int;
    }
    return false;
  }
};

Slot i32(std::int32_t v) { return Slot::from_i32(v); }

/// The cold-start set with its native reference results.
std::vector<Program> make_programs() {
  const cil::ScimarkSizes t = cil::ScimarkSizes::test_model();
  std::vector<Program> p;
  p.push_back({"fft", cil::build_sm_fft, {i32(t.fft_n), i32(t.fft_cycles)},
               Ret::F64,
               kernels::fft::roundtrip_checksum(t.fft_n, t.fft_cycles)});
  p.push_back({"sor", cil::build_sm_sor, {i32(t.sor_n), i32(t.sor_iters)},
               Ret::F64, kernels::sor::checksum(t.sor_n, t.sor_iters)});
  p.push_back({"montecarlo", cil::build_sm_montecarlo, {i32(t.mc_samples)},
               Ret::F64, kernels::montecarlo::integrate(t.mc_samples)});
  p.push_back({"sparse", cil::build_sm_sparse,
               {i32(t.sparse_n), i32(t.sparse_nz), i32(t.sparse_iters)},
               Ret::F64,
               kernels::sparse::checksum(t.sparse_n, t.sparse_nz,
                                         t.sparse_iters)});
  p.push_back({"lu", cil::build_sm_lu, {i32(t.lu_n)}, Ret::F64,
               kernels::lu::checksum(t.lu_n)});
  p.push_back({"fib", cil::build_jg_fib, {i32(15)}, Ret::I64, 0,
               kernels::fib::compute(15)});
  p.push_back({"sieve", cil::build_jg_sieve, {i32(1000)}, Ret::I32, 0,
               kernels::sieve::count_primes(1000)});
  p.push_back({"hanoi", cil::build_jg_hanoi, {i32(10)}, Ret::I64, 0,
               kernels::hanoi::solve(10)});
  p.push_back({"heapsort", cil::build_jg_heapsort, {i32(1000)}, Ret::I64, 0,
               kernels::heapsort::run(1000)});
  p.push_back({"crypt", cil::build_jg_crypt, {i32(1024)}, Ret::I64, 0,
               kernels::crypt::run(1024)});
  return p;
}

/// A fresh VM with the whole set built into its module (untimed: the
/// metrics start at the first call) and a clr11 engine.
struct FreshVm {
  std::unique_ptr<vm::VirtualMachine> vm;
  std::unique_ptr<vm::Engine> engine;
  std::vector<std::int32_t> ids;

  explicit FreshVm(const std::vector<Program>& programs)
      : vm(std::make_unique<vm::VirtualMachine>()) {
    for (const Program& p : programs) ids.push_back(p.build(*vm));
    engine = vm::make_engine(*vm, vm::profiles::by_name(kProfile));
  }
};

/// Runs the set once in `order`, validating every result; returns the
/// summed invoke time in ns (each invoke is also a span).
std::int64_t run_set(FreshVm& f, const std::vector<Program>& programs,
                     const std::vector<std::size_t>& order, const char* phase,
                     Report& report) {
  vm::VMContext& ctx = f.vm->main_context();
  std::int64_t total = 0;
  for (std::size_t i : order) {
    Slot r{};
    total += span(phase, programs[i].name, [&] {
      r = f.engine->invoke(ctx, f.ids[i], programs[i].args);
    });
    const bool ok = programs[i].matches(r);
    report.check(ok);
    if (!ok) report.note(std::string("wrong result: ") + phase + " " +
                         programs[i].name);
  }
  return total;
}

struct Iteration {
  double cold_ms = 0;
  double warm_ms = 0;
  // Stage split (zero unless requested).
  double steady_us = 0;
  double deserialize_us = 0;
  double attach_us = 0;
  double warm_run_us = 0;
  double live_bytes = 0;  // cold VM's live heap after both passes
  vm::ArchiveStats restored;
};

/// Which fresh VMs an iteration boots.
enum class Boots { Cold, Warm, Both };

Iteration iterate(const std::vector<Program>& programs,
                  const std::vector<char>& archive_bytes,
                  std::mt19937_64& rng, Boots boots, bool split,
                  Report& report) {
  Iteration it;
  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  if (boots != Boots::Warm) {
    std::shuffle(order.begin(), order.end(), rng);
    FreshVm f(programs);
    const std::int64_t t0 = now_ns();
    run_set(f, programs, order, "coldstart.cold", report);
    it.cold_ms = ns_to_ms(static_cast<double>(now_ns() - t0));
    if (split) {
      it.steady_us = ns_to_us(static_cast<double>(
          run_set(f, programs, order, "coldstart.steady", report)));
      it.live_bytes = static_cast<double>(f.vm->heap().stats().live_bytes);
    }
  }
  if (boots != Boots::Cold) {
    std::shuffle(order.begin(), order.end(), rng);
    FreshVm f(programs);
    const std::int64_t t0 = now_ns();
    std::vector<std::shared_ptr<const vm::CodeArchive>> archives;
    const std::int64_t deser = span("archive", "deserialize_archives", [&] {
      archives = vm::deserialize_archives(f.vm->module(), archive_bytes.data(),
                                          archive_bytes.size());
    });
    const std::int64_t attach = span("archive", "attach_archive", [&] {
      for (const auto& a : archives) {
        const vm::ArchiveStats s = vm::attach_archive(*f.vm, a);
        it.restored.restored += s.restored;
        it.restored.missed += s.missed;
      }
    });
    const std::int64_t run =
        run_set(f, programs, order, "coldstart.warm", report);
    it.warm_ms = ns_to_ms(static_cast<double>(now_ns() - t0));
    it.deserialize_us = ns_to_us(static_cast<double>(deser));
    it.attach_us = ns_to_us(static_cast<double>(attach));
    it.warm_run_us = ns_to_us(static_cast<double>(run));
  }
  return it;
}

/// Σ verify and Σ regir::compile over every method of a fresh module
/// holding the set, plus the compiled register-instruction count. The IL
/// builders verify each method as they build it (cil/common.hpp), so a
/// plain verify() on a built module returns at once; the verifier's cost is
/// measured with verify_body on an unverified copy of each body.
struct FrontEnd {
  double verify_us = 0;
  double compile_us = 0;
  double rcode_instrs = 0;
};

FrontEnd measure_front_end(const std::vector<Program>& programs) {
  FreshVm f(programs);
  vm::Module& module = f.vm->module();
  const vm::EngineFlags flags = vm::profiles::by_name(kProfile).flags;
  FrontEnd fe;
  const auto n = static_cast<std::int32_t>(module.method_count());
  for (std::int32_t id = 0; id < n; ++id) {
    vm::MethodDef body = module.method(id);
    body.verified = false;
    body.max_stack = 0;
    body.stack_in.clear();
    body.reachable.clear();
    fe.verify_us += ns_to_us(static_cast<double>(span(
        "verifier", body.name, [&] { vm::verify_body(module, body); })));
  }
  for (std::int32_t id = 0; id < n; ++id) {
    vm::regir::RCode code;
    fe.compile_us += ns_to_us(static_cast<double>(
        span("regcompile", module.method(id).name, [&] {
          code = vm::regir::compile(module, module.method(id), flags);
        })));
    fe.rcode_instrs += static_cast<double>(code.code.size());
  }
  return fe;
}

std::vector<char> capture(const std::vector<Program>& programs,
                          Report& report) {
  FreshVm f(programs);
  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  run_set(f, programs, order, "setup", report);
  return vm::serialize_archives({vm::capture_archive(*f.vm, kProfile)});
}

template <class F>
std::vector<double> collect(const std::vector<Iteration>& its, F field) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(field(it));
  return v;
}

/// Iterations booting both kinds of VM until `budget_s` has passed (at
/// least kMinIterations), each on the next CPU of `cpus`. With `split`,
/// each also measures the stage split and the front end (appended to
/// `fronts`).
std::vector<Iteration> iterate_for(double budget_s,
                                   const std::vector<Program>& programs,
                                   const std::vector<char>& archive_bytes,
                                   std::mt19937_64& rng, CpuRotation& cpus,
                                   bool split, Report& report,
                                   std::vector<FrontEnd>* fronts = nullptr) {
  std::vector<Iteration> its;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  while (static_cast<int>(its.size()) < kMinIterations || now_ns() < end) {
    cpus.next();
    its.push_back(
        iterate(programs, archive_bytes, rng, Boots::Both, split, report));
    if (fronts != nullptr) fronts->push_back(measure_front_end(programs));
  }
  return its;
}

double p10(const std::vector<double>& v) { return low_quantile(v, 10); }

std::string fmt(double v) {
  std::ostringstream o;
  o.precision(4);
  o << std::fixed << v;
  return o.str();
}

}  // namespace

Report run_startup(const Options& opt, bool warm_boot) {
  Report report;
  const std::vector<Program> programs = make_programs();
  std::mt19937_64 rng = make_rng(opt.seed, 2);

  // Set-up: build a VM, run the set, capture and serialize its archive.
  Report setup_checks;
  std::vector<char> archive_bytes;
  std::vector<double> setups;
  const auto setup = [&] { archive_bytes = capture(programs, setup_checks); };
  CpuRotation cpus;
  time_setups(kSetupRoundsBefore, kSetupsPerRound, setup, setups, &cpus);

  const auto cold = [](const Iteration& i) { return i.cold_ms; };
  const auto warm = [](const Iteration& i) { return i.warm_ms; };

  if (!opt.trace) {
    // The measurement is cut into chunks, each one set-up round whose
    // set-ups are spread through it.
    std::vector<Iteration> its;
    SetupSampler sampler(setup, kSetupIntervalS, setups);
    const std::int64_t chunk_ns =
        static_cast<std::int64_t>(opt.seconds / kSetupRoundsAfter * 1e9);
    for (int chunk = 0; chunk < kSetupRoundsAfter; ++chunk) {
      const std::int64_t end = now_ns() + chunk_ns;
      std::size_t n = 0;
      while (n < static_cast<std::size_t>(kMinIterations) || now_ns() < end) {
        cpus.next();
        its.push_back(iterate(programs, archive_bytes, rng,
                              warm_boot ? Boots::Warm : Boots::Cold, false,
                              report));
        ++n;
        sampler.tick();
      }
      sampler.close_round();
    }
    const std::vector<double> first =
        warm_boot ? collect(its, warm) : collect(its, cold);
    report.add("setup_s", median(setups), "s");
    report.add("op_ms", p10(first), "ms");
    add_common_end_to_end(report);
    report.note("host disturbance: first-result IQR / median within the "
                "run " + fmt(iqr_share(first) * 100) + "%");
    report.note(opt.workload + ": " + std::to_string(its.size()) + " " +
                (warm_boot ? "archive-booted" : "cold") + " VMs, " +
                std::to_string(programs.size()) + " programs per VM");
  } else {
    std::vector<FrontEnd> fronts;
    const std::vector<Iteration> plain =
        iterate_for(opt.seconds / 2, programs, archive_bytes, rng, cpus, true,
                    report, &fronts);
    begin_traced_phase();
    const std::vector<Iteration> traced = iterate_for(
        opt.seconds / 2, programs, archive_bytes, rng, cpus, false, report);
    const telemetry::Snapshot snap = end_traced_phase();

    std::vector<double> verify_us, compile_us;
    for (const FrontEnd& f : fronts) {
      verify_us.push_back(f.verify_us);
      compile_us.push_back(f.compile_us);
    }
    const double n_traced = static_cast<double>(traced.size());
    report.add("verifier.us", p10(verify_us), "us");
    report.add("regcompile.us", p10(compile_us), "us");
    report.add("regcompile.rcode_instrs", fronts.front().rcode_instrs,
               "count");
    static const char* const kPassNames[] = {
        "inline", "translate", "optimize", "cse",     "licm",
        "bce",    "vec_lower", "compact",  "finalize"};
    static_assert(std::size(kPassNames) == telemetry::kNumJitPasses);
    const telemetry::EngineJitTimes* jit = snap.engine_jit(kProfile);
    for (std::size_t p = 0; p < telemetry::kNumJitPasses; ++p) {
      const double ns = jit != nullptr ? static_cast<double>(jit->pass_ns[p])
                                       : 0.0;
      report.add(std::string("regcompile.pass.") + kPassNames[p] + "_us",
                 ns_to_us(ns) / n_traced, "us");
    }
    const auto deser = [](const Iteration& i) { return i.deserialize_us; };
    const auto attach = [](const Iteration& i) { return i.attach_us; };
    report.add("archive.deserialize_us", p10(collect(plain, deser)), "us");
    report.add("archive.attach_us", p10(collect(plain, attach)), "us");
    report.add("archive.bytes", static_cast<double>(archive_bytes.size()),
               "bytes");
    report.add("archive.restored",
               static_cast<double>(plain.back().restored.restored), "count");
    report.add("archive.missed",
               static_cast<double>(plain.back().restored.missed), "count");
    add_heap_layer(report, snap,
                   n_traced * 2 * static_cast<double>(programs.size()),
                   plain.back().live_bytes);
    // Tracing overhead on the workload's own boots.
    const auto own = [&](const std::vector<Iteration>& its) {
      return p10(warm_boot ? collect(its, warm) : collect(its, cold));
    };
    report.add("trace.overhead_pct", (own(traced) / own(plain) - 1) * 100,
               "%");

    // Stage reconciliation, p10 of the untraced iterations (ms).
    const auto ms = [&](auto f) { return p10(collect(plain, f)) * 1e-3; };
    const double first = p10(collect(plain, cold));
    const double v = p10(verify_us) * 1e-3;
    const double c = p10(compile_us) * 1e-3;
    const double steady = ms([](const Iteration& i) { return i.steady_us; });
    // The builders verified every method before the clock started, so the
    // verifier's share is printed beside the split, not inside it.
    report.note("reconcile cold: first_result " + fmt(first) +
                " ms = compile " + fmt(c) + " + steady run " + fmt(steady) +
                " + unexplained " + fmt(first - c - steady) +
                " ms (verify " + fmt(v) +
                " ms ran at module build, before the first call)");
    const double wfirst = p10(collect(plain, warm));
    const double d = ms(deser);
    const double a = ms(attach);
    const double r = ms([](const Iteration& i) { return i.warm_run_us; });
    report.note("reconcile warm: warm_first_result " + fmt(wfirst) +
                " ms = deserialize " + fmt(d) + " + attach " + fmt(a) +
                " + run " + fmt(r) + " + unexplained " +
                fmt(wfirst - d - a - r) + " ms");
    report.note("coldstart traced: " + std::to_string(plain.size()) +
                " untraced + " + std::to_string(traced.size()) +
                " traced iterations");
  }
  if (setup_checks.failed != 0) {
    report.correct = false;
    report.note("set-up run of the program set produced wrong results");
  }
  report.correct = report.correct && report.failed == 0;
  return report;
}

}  // namespace perfbench

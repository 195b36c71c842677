// Graph 4: loop overheads (for / reverse-for / while), plus a fuel-metered
// variant of the For row: same loop with a per-job fuel budget armed (large
// enough that it never fires), so the delta is the cost of the metering
// itself. The fuel pulse shares the interpreter's existing back-edge counter
// (DESIGN.md §11); a hand-timed interpreter comparison prints a greppable
// "interp-fuel-overhead-pct:" line (median of paired runs, then its IQR)
// that CI asserts stays under 2%.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "cil/micro.hpp"
#include "paper_bench.hpp"

namespace {

using namespace hpcnet;
using namespace hpcnet::bench;

constexpr std::int32_t kSize = 1 << 18;

void native_for(std::int32_t size) {
  std::int32_t i = 0;
  for (; i < size; ++i) {
    benchmark::DoNotOptimize(i);
  }
}
void native_reverse(std::int32_t size) {
  std::int32_t i = size;
  for (; i > 0; --i) {
    benchmark::DoNotOptimize(i);
  }
}
void native_while(std::int32_t size) {
  std::int32_t i = 0;
  while (i < size) {
    ++i;
    benchmark::DoNotOptimize(i);
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto& v = ctx().vm();
  const std::int32_t loop_for = cil::build_loop_for(v);
  register_sized("For", loop_for, 1, kSize);
  register_native("For", native_for, 1, kSize);
  {
    const std::int32_t method = loop_for;
    register_custom(
        "ForFuelMetered",
        [method](vm::Engine& e) {
          vm::VMContext& vc = ctx().vm().main_context();
          vc.fuel.active = true;
          vc.fuel.remaining = std::int64_t{1} << 60;
          const vm::Slot arg = vm::Slot::from_i32(kSize);
          benchmark::DoNotOptimize(
              e.invoke(vc, method, std::span<const vm::Slot>(&arg, 1)).raw);
          vc.fuel = vm::FuelMeter{};
        },
        kSize);
  }
  register_sized("ReverseFor", cil::build_loop_reverse_for(v), 1, kSize);
  register_native("ReverseFor", native_reverse, 1, kSize);
  register_sized("While", cil::build_loop_while(v), 1, kSize);
  register_native("While", native_while, 1, kSize);

  // Hand-timed check (deliberately not google-benchmark, so the output
  // format is stable for CI): arming a fuel budget on the pure interpreter
  // must be within noise of the unmetered loop, because the pulse rides the
  // back-edge counter the dispatch loop already maintains. Each pair times
  // kRounds metered and kRounds plain invocations, interleaved and
  // alternating which side runs first, so frequency and scheduler drift hit
  // both sides equally, and compares each side's fastest (preemption only
  // ever adds time). The thread stays on one CPU for the whole check because
  // vCPUs of a shared host can differ in speed. The estimate is the median
  // over the pairs; the IQR printed beside it says whether the host can
  // resolve the 2% bound.
  {
    vm::Engine& interp = ctx().engine("rotor10");
    vm::VMContext& vc = ctx().vm().main_context();
    const vm::Slot arg = vm::Slot::from_i32(kSize);
    const std::span<const vm::Slot> args(&arg, 1);
    auto time_once = [&](bool fuel) {
      if (fuel) {
        vc.fuel.active = true;
        vc.fuel.remaining = std::int64_t{1} << 60;
      }
      const auto t0 = std::chrono::steady_clock::now();
      interp.invoke(vc, loop_for, args);
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      vc.fuel = vm::FuelMeter{};
      return s;
    };
    cpu_set_t saved;
    const bool pinned = sched_getaffinity(0, sizeof saved, &saved) == 0;
    if (pinned) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(sched_getcpu(), &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    time_once(false);  // warmup
    constexpr int kPairs = 31;
    constexpr int kRounds = 4;
    std::vector<double> pct;
    for (int pair = 0; pair < kPairs; ++pair) {
      double metered = 1e300;
      double plain = 1e300;
      for (int round = 0; round < kRounds; ++round) {
        const bool metered_first = (pair + round) % 2 == 1;
        const double first = time_once(metered_first);
        const double second = time_once(!metered_first);
        metered = std::min(metered, metered_first ? first : second);
        plain = std::min(plain, metered_first ? second : first);
      }
      pct.push_back((metered / plain - 1.0) * 100.0);
    }
    if (pinned) sched_setaffinity(0, sizeof saved, &saved);
    std::sort(pct.begin(), pct.end());
    auto quantile = [&](double q) {
      const double pos = q * static_cast<double>(pct.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, pct.size() - 1);
      return pct[lo] + (pct[hi] - pct[lo]) * (pos - static_cast<double>(lo));
    };
    std::printf("interp-fuel-overhead-pct: %.3f iqr %.3f pairs %d\n",
                quantile(0.5), quantile(0.75) - quantile(0.25), kPairs);
  }
  return run_main(argc, argv, "Graph 4: loop performance");
}

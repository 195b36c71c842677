// The frame protocol all three execution tiers follow (DESIGN.md §11): the
// fuel/deadline check at frame entry, the per-frame pulse window that meters
// taken back edges, and the residual charge at frame exit. The stack-IL
// executor (rotor10, mono023) and the optimizing tier both run their frames
// through these definitions, which is what keeps `fuel_spent` bit-identical
// across tiers for the same program.
#pragma once

#include <cstdint>

#include "vm/execution.hpp"
#include "vm/module.hpp"

namespace hpcnet::vm {

/// Raises a catchable FuelExhausted or DeadlineExceeded exception (via
/// ctx.pending_exception) when the job's budget has run out; returns false
/// then. Called at frame entry, so a frame entered after the budget ran dry
/// faults immediately and loop-free callees cannot extend a dead job, and at
/// every pulse.
inline bool budget_ok(VirtualMachine& vm, VMContext& ctx) {
  if (ctx.fuel.exhausted()) {
    vm.throw_exception(ctx, vm.module().fuel_exhausted_class(),
                       "fuel budget exhausted");
    return false;
  }
  // One clock read per call, and only when a deadline is armed (§14).
  if (ctx.fuel.past_deadline()) {
    vm.throw_exception(ctx, vm.module().deadline_exceeded_class(),
                       "wall-clock deadline exceeded");
    return false;
  }
  return true;
}

/// One frame's back-edge counter. The IL tiers share it with OSR: both ride
/// one `++backedges == pulse_next` compare on a taken back edge, so arming
/// fuel adds no second branch to the dispatch loop. With OSR armed the pulse
/// cadence is the OSR trigger; fuel alone pulses every kFuelPulseBackedges;
/// with neither, pulse_next parks at 0 and only matches on 32-bit wrap (a
/// harmless no-op pulse).
struct PulseWindow {
  std::uint32_t backedges = 0;     // taken back edges in this frame
  std::uint32_t fuel_charged = 0;  // back edges already charged to the meter
  std::uint32_t pulse_next = 0;    // backedges value of the next pulse
  std::uint32_t step = 0;          // pulse cadence; 0 parks the window
  bool fuel_on = false;

  PulseWindow(const FuelMeter& fuel, std::uint32_t osr_step)
      : step(osr_step != 0 ? osr_step
                           : (fuel.active ? kFuelPulseBackedges : 0)),
        fuel_on(fuel.active) {
    pulse_next = step;
  }

  /// Counts one taken back edge; true when it is a pulse.
  bool tick() { return ++backedges == pulse_next; }

  /// Pulse charge: re-arms the window and charges its back edges to the
  /// meter. Returns false, with the exception pending, when the job must die
  /// at this safepoint. Re-arming every time means an exhausted job whose
  /// exception was caught is killed again one pulse later.
  bool pulse(VirtualMachine& vm, VMContext& ctx) {
    pulse_next += step;
    if (!fuel_on) return true;
    ctx.fuel.charge(backedges - fuel_charged);
    fuel_charged = backedges;
    return budget_ok(vm, ctx);
  }

  /// Stops pulsing once OSR gives up on the frame, unless fuel still needs
  /// the counter.
  void park_unless_fuel() {
    if (!fuel_on) pulse_next = 0;
  }

  /// Residual charge at frame exit: the back edges taken since the last
  /// pulse. No kill check here; the next pulse or frame entry catches an
  /// overdraw, so short loops in callees are still metered.
  void charge_residual(FuelMeter& fuel) {
    if (fuel_on && backedges != fuel_charged) {
      fuel.charge(backedges - fuel_charged);
      fuel_charged = backedges;
    }
  }

  /// Bulk charge for a loop that runs `trips` back edges at once (VECLOOP):
  /// charges exactly what the scalar loop's pulses would have charged by its
  /// last pulse. The residual past it stays in `backedges` for the next pulse
  /// or the exit charge, so later checks see the same state the scalar loop
  /// leaves. Returns false, charging nothing, when that would exhaust the
  /// budget: the scalar loop then kills the job at precisely the right pulse.
  /// `*charged` receives the amount for rollback().
  bool charge_bulk(FuelMeter& fuel, std::uint64_t trips,
                   std::uint64_t* charged) {
    *charged = 0;
    if (!fuel_on) return true;
    const std::uint64_t after = std::uint64_t{backedges} + trips;
    if (after >= pulse_next) {
      const std::uint64_t last_pulse = after - (after % kFuelPulseBackedges);
      const std::uint64_t bulk = last_pulse - fuel_charged;
      if (fuel.remaining <= static_cast<std::int64_t>(bulk)) return false;
      fuel.charge(bulk);
      *charged = bulk;
      fuel_charged = static_cast<std::uint32_t>(last_pulse);
      pulse_next = static_cast<std::uint32_t>(last_pulse) + kFuelPulseBackedges;
    }
    backedges = static_cast<std::uint32_t>(after);
    return true;
  }

  /// Undoes a charge_bulk(): restores the window saved before it and refunds
  /// the meter, so the scalar loop can re-run and meter itself.
  void rollback(const PulseWindow& saved, FuelMeter& fuel,
                std::uint64_t charged) {
    *this = saved;
    fuel.spent -= charged;
    fuel.remaining += static_cast<std::int64_t>(charged);
  }
};

}  // namespace hpcnet::vm

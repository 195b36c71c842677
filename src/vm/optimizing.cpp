// Tier::Optimizing — the CLR 1.1 / IBM JVM class engine. Methods are
// compiled (by the TieredEngine, into the profile's CodeCache) to the
// three-address register IR in regir.hpp and executed as direct-threaded
// code over a flat register file: a label table indexed by ROp, every
// handler ending in its own indirect jump on an instruction pointer that
// stays in a register, no operand stack, no tag checks, safepoint polls only
// on taken backward branches.
#include <algorithm>
#include <iterator>

#include "vm/arith.hpp"
#include "vm/engines.hpp"
#include "vm/execution.hpp"
#include "vm/frame_protocol.hpp"
#include "vm/heap.hpp"
#include "vm/intrinsics.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/regir.hpp"
#include "vm/unwind.hpp"
#include "vm/veckernels.hpp"

namespace hpcnet::vm {

namespace {

using regir::RCode;
using regir::RInstr;
using regir::ROp;

constexpr std::uint8_t kTierIndex = static_cast<std::uint8_t>(Tier::Optimizing);

constexpr std::int64_t kRegFieldBits = 20;
constexpr std::int64_t kRegFieldMask = (1 << kRegFieldBits) - 1;

// Every ROp in declaration order. The dispatch table in
// OptimizingBackend::run is generated from this list, and the checks below
// tie the list to the enum: an op added to regir.hpp but not here, or listed
// out of order, fails the build.
#define OPT_ROPS(X)                                                          \
  X(NOP_R) X(MOV) X(MEMLD) X(MEMST) X(LDI) X(LDSTR_R)                        \
  X(ADD_I4) X(SUB_I4) X(MUL_I4) X(DIV_I4) X(REM_I4) X(NEG_I4)                \
  X(ADD_I8) X(SUB_I8) X(MUL_I8) X(DIV_I8) X(REM_I8) X(NEG_I8)                \
  X(ADD_R4) X(SUB_R4) X(MUL_R4) X(DIV_R4) X(REM_R4) X(NEG_R4)                \
  X(ADD_R8) X(SUB_R8) X(MUL_R8) X(DIV_R8) X(REM_R8) X(NEG_R8)                \
  X(ADDI_I4) X(SUBI_I4) X(MULI_I4) X(DIVI_I4) X(REMI_I4)                     \
  X(ADDI_I8) X(SUBI_I8) X(MULI_I8) X(DIVI_I8) X(REMI_I8)                     \
  X(ADDI_R8) X(MULI_R8)                                                      \
  X(AND_I4) X(OR_I4) X(XOR_I4) X(NOT_I4) X(SHL_I4) X(SHR_I4) X(SHRU_I4)      \
  X(AND_I8) X(OR_I8) X(XOR_I8) X(NOT_I8) X(SHL_I8) X(SHR_I8) X(SHRU_I8)      \
  X(SHLI_I4) X(SHRI_I4) X(SHLI_I8) X(SHRI_I8) X(ANDI_I4)                     \
  X(CEQ_I4) X(CGT_I4) X(CLT_I4) X(CEQ_I8) X(CGT_I8) X(CLT_I8)                \
  X(CEQ_R4) X(CGT_R4) X(CLT_R4) X(CEQ_R8) X(CGT_R8) X(CLT_R8) X(CEQ_REF)     \
  X(CV_I4_I8) X(CV_I4_R4) X(CV_I4_R8) X(CV_I8_I4) X(CV_I8_R4) X(CV_I8_R8)    \
  X(CV_R4_I4) X(CV_R4_I8) X(CV_R4_R8) X(CV_R8_I4) X(CV_R8_I8) X(CV_R8_R4)    \
  X(SEXT8) X(ZEXT8) X(SEXT16) X(ZEXT16)                                      \
  X(JMP) X(JMPB) X(JZ_I4) X(JNZ_I4) X(JZ_I8) X(JNZ_I8) X(JZ_REF) X(JNZ_REF)  \
  X(JEQ_I4) X(JNE_I4) X(JLT_I4) X(JLE_I4) X(JGT_I4) X(JGE_I4)                \
  X(JEQ_I8) X(JNE_I8) X(JLT_I8) X(JLE_I8) X(JGT_I8) X(JGE_I8)                \
  X(JEQ_R4) X(JNE_R4) X(JLT_R4) X(JLE_R4) X(JGT_R4) X(JGE_R4)                \
  X(JEQ_R8) X(JNE_R8) X(JLT_R8) X(JLE_R8) X(JGT_R8) X(JGE_R8)                \
  X(JEQ_REF) X(JNE_REF)                                                      \
  X(JEQI_I4) X(JNEI_I4) X(JLTI_I4) X(JLEI_I4) X(JGTI_I4) X(JGEI_I4)          \
  X(CALL_R) X(CALLINTR_R) X(MATH1_R8) X(MATH2_R8)                            \
  X(ABS_I4_R) X(ABS_I8_R) X(ABS_R4_R) X(ABS_R8_R)                            \
  X(MAX_I4_R) X(MAX_I8_R) X(MAX_R4_R) X(MAX_R8_R)                            \
  X(MIN_I4_R) X(MIN_I8_R) X(MIN_R4_R) X(MIN_R8_R)                            \
  X(RET_R) X(NEWOBJ_R) X(LDFLD_R) X(STFLD_R) X(LDSFLD_R) X(STSFLD_R)         \
  X(NEWARR_R) X(LDLEN_R) X(CHK_BOUNDS) X(JLT_LEN)                            \
  X(LDELEM_I4) X(LDELEM_I8) X(LDELEM_R4) X(LDELEM_R8) X(LDELEM_REF)          \
  X(STELEM_I4) X(STELEM_I8) X(STELEM_R4) X(STELEM_R8) X(STELEM_REF)          \
  X(LDELEMU_I4) X(LDELEMU_I8) X(LDELEMU_R4) X(LDELEMU_R8) X(LDELEMU_REF)     \
  X(STELEMU_I4) X(STELEMU_I8) X(STELEMU_R4) X(STELEMU_R8) X(STELEMU_REF)     \
  X(NEWMAT_R)                                                                \
  X(LDEL2_I4) X(LDEL2_I8) X(LDEL2_R4) X(LDEL2_R8) X(LDEL2_REF)               \
  X(STEL2_I4) X(STEL2_I8) X(STEL2_R4) X(STEL2_R8) X(STEL2_REF)               \
  X(LDEL2_SLOW) X(STEL2_SLOW) X(LDMROWS_R) X(LDMCOLS_R)                      \
  X(BOX_R) X(UNBOX_R) X(THROW_R) X(LEAVE_R) X(ENDFINALLY_R) X(SAFEPOINT)     \
  X(CARDMARK) X(VECLOOP)

constexpr ROp kOpOrder[] = {
#define OPT_ROP_ENUM(name) ROp::name,
    OPT_ROPS(OPT_ROP_ENUM)
#undef OPT_ROP_ENUM
};
static_assert(std::size(kOpOrder) == static_cast<std::size_t>(ROp::COUNT_),
              "OPT_ROPS must list every ROp exactly once");

constexpr bool ops_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kOpOrder); ++i) {
    if (kOpOrder[i] != static_cast<ROp>(i)) return false;
  }
  return true;
}
static_assert(ops_in_enum_order(), "OPT_ROPS must follow the ROp enum order");

struct OptFrame {
  GcFrame gc;  // must be first
  const RCode* rc = nullptr;
  Slot* regs = nullptr;

  static void enumerate(const GcFrame* g, void (*visit)(ObjRef, void*),
                        void* arg) {
    const auto* f = reinterpret_cast<const OptFrame*>(g);
    for (std::int32_t r : f->rc->ref_regs) {
      if (f->regs[r].ref != nullptr) visit(f->regs[r].ref, arg);
    }
  }
};

/// Deliberately out-of-line rank-2 helpers: the "generic" multidimensional
/// array path of the JVM-like profiles goes through a call, mirroring how
/// Java's reflective multiarray access compares with the CLR's direct
/// row-major indexing (paper Graph 12).
[[gnu::noinline]] bool generic_mat_index(ObjRef mat, std::int32_t r,
                                         std::int32_t c, std::int64_t* out) {
  if (mat == nullptr || mat->kind != ObjKind::Matrix2) return false;
  if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) return false;
  *out = static_cast<std::int64_t>(r) * mat->cols + c;
  return true;
}

/// The VECLOOP superinstruction (DESIGN.md §12). If every span the kernel
/// touches is provably in-bounds for the whole trip range, runs the loop as
/// one kernel call and leaves the register state exactly as the scalar loop
/// would at exit (ivar = limit, acc = final value); the scalar guard that
/// follows then exits immediately. Any guard failure returns with NO state
/// change, falling through to the retained scalar loop — which throws (or
/// just runs) exactly as an unvectorized build would.
void run_vec_loop(VirtualMachine& vm, VMContext& ctx, const RCode::VecLoop& v,
                  Slot* R, PulseWindow& win) {
  const std::int32_t start = R[v.ivar].i32;
  std::int32_t limit;
  if (v.limit >= 0) {
    limit = R[v.limit].i32;
  } else {
    ObjRef larr = R[v.limit_arr].ref;
    if (larr == nullptr) return;  // scalar loop throws the NRE
    limit = larr->length;
  }
  if (start >= limit) return;  // zero-trip: nothing to do, touch nothing
  ObjRef a0 = v.arr0 >= 0 ? R[v.arr0].ref : nullptr;
  ObjRef a1 = v.arr1 >= 0 ? R[v.arr1].ref : nullptr;
  ObjRef a2 = v.arr2 >= 0 ? R[v.arr2].ref : nullptr;
  if ((v.arr0 >= 0 && a0 == nullptr) || (v.arr1 >= 0 && a1 == nullptr) ||
      (v.arr2 >= 0 && a2 == nullptr) || start < 0) {
    return;
  }
  bool ok = false;
  switch (v.kernel) {
    case veckernels::kMapScaleF64:
    case veckernels::kMapScaleI4:
    case veckernels::kSumF64:
    case veckernels::kSumI4:
      ok = limit <= a0->length;
      break;
    case veckernels::kMapAddF64:
    case veckernels::kMapAddI4:
    case veckernels::kDaxpyF64:
    case veckernels::kDaxpyI4:
    case veckernels::kDotF64:
    case veckernels::kDotI4:
      ok = limit <= a0->length && limit <= a1->length;
      break;
    case veckernels::kGatherDotF64:
      // arr0 (x) is indexed through arr1's data-dependent values; the
      // kernel checks those per element and abandons on a violation.
      ok = limit <= a1->length && limit <= a2->length;
      break;
    case veckernels::kSor5F64:
      ok = start >= 1 && limit <= a0->length - 1 &&
           limit <= a1->length && limit <= a2->length;
      break;
    default:
      break;
  }
  if (!ok) return;

  // Fuel: the scalar loop's pulses, charged in bulk. If that would exhaust
  // the budget, decline vectorization: the scalar loop then kills the job at
  // precisely the right pulse.
  const std::int64_t trips =
      static_cast<std::int64_t>(limit) - static_cast<std::int64_t>(start);
  const PulseWindow saved = win;
  std::uint64_t bulk = 0;
  if (!win.charge_bulk(ctx.fuel, static_cast<std::uint64_t>(trips), &bulk)) {
    return;
  }

  Slot s0v, s1v;
  if (v.s0_reg >= 0) {
    s0v = R[v.s0_reg];
  } else {
    s0v.raw = static_cast<std::uint64_t>(v.s0_bits);
  }
  if (v.s1_reg >= 0) {
    s1v = R[v.s1_reg];
  } else {
    s1v.raw = static_cast<std::uint64_t>(v.s1_bits);
  }

  switch (v.kernel) {
    case veckernels::kMapScaleF64:
      veckernels::map_scale_f64(a0->f64_data(), start, limit, s0v.f64);
      break;
    case veckernels::kMapAddF64:
      veckernels::map_add_f64(a0->f64_data(), a1->f64_data(), start, limit);
      break;
    case veckernels::kDaxpyF64:
      veckernels::daxpy_f64(a0->f64_data(), a1->f64_data(), start, limit,
                            s0v.f64);
      break;
    case veckernels::kSumF64:
      R[v.acc] = Slot::from_f64(
          veckernels::sum_f64(a0->f64_data(), start, limit, R[v.acc].f64));
      break;
    case veckernels::kDotF64:
      R[v.acc] = Slot::from_f64(veckernels::dot_f64(
          a0->f64_data(), a1->f64_data(), start, limit, R[v.acc].f64));
      break;
    case veckernels::kGatherDotF64: {
      double out = 0;
      if (!veckernels::gather_dot_f64(a0->f64_data(), a0->length,
                                      a1->i32_data(), a2->f64_data(), start,
                                      limit, R[v.acc].f64, &out)) {
        // Data-dependent gather index out of range: roll the fuel state
        // back and let the scalar loop re-run — it meters itself pulse by
        // pulse and throws at exactly the offending element.
        win.rollback(saved, ctx.fuel, bulk);
        return;
      }
      R[v.acc] = Slot::from_f64(out);
      break;
    }
    case veckernels::kSor5F64:
      veckernels::sor5_f64(a0->f64_data(), a1->f64_data(), a2->f64_data(),
                           start, limit, s0v.f64, s1v.f64);
      break;
    case veckernels::kMapScaleI4:
      veckernels::map_scale_i32(a0->i32_data(), start, limit, s0v.i32);
      break;
    case veckernels::kMapAddI4:
      veckernels::map_add_i32(a0->i32_data(), a1->i32_data(), start, limit);
      break;
    case veckernels::kDaxpyI4:
      veckernels::daxpy_i32(a0->i32_data(), a1->i32_data(), start, limit,
                            s0v.i32);
      break;
    case veckernels::kSumI4:
      R[v.acc] = Slot::from_i32(
          veckernels::sum_i32(a0->i32_data(), start, limit, R[v.acc].i32));
      break;
    case veckernels::kDotI4:
      R[v.acc] = Slot::from_i32(veckernels::dot_i32(
          a0->i32_data(), a1->i32_data(), start, limit, R[v.acc].i32));
      break;
    default:
      return;
  }

  // The whole loop ran: hand off to the scalar guard in exit position. One
  // safepoint poll stands in for the per-back-edge polls (there is never a
  // poll, allocation or call inside a lowered loop body).
  R[v.ivar] = Slot::from_i32(limit);
  telemetry::record_vec_loop(veckernels::kernel_name(v.kernel),
                             static_cast<std::uint64_t>(trips));
  vm.safepoint_poll(ctx);
}

class OptimizingBackend final : public OptBackend {
 public:
  OptimizingBackend(VirtualMachine& vm, TieredEngine& engine)
      : vm_(vm), engine_(engine) {}

  // Compilation (and the per-method latching around it) lives in the
  // TieredEngine + CodeCache; this backend only executes published bodies.
  Slot run_compiled(VMContext& ctx, const RCode& rc,
                    const Slot* args) override {
    return run(ctx, rc, args);
  }

  Slot execute(VMContext& ctx, const MethodDef& m,
               const Slot* args) override {
    // Only reachable in Single mode, where opt_code_for_call compiles on
    // demand and never returns null (tiered dispatch uses run_compiled).
    return run(ctx, *engine_.opt_code_for_call(m.id), args);
  }

 private:
  Slot run(VMContext& ctx, const RCode& rc, const Slot* args);

  VirtualMachine& vm_;
  TieredEngine& engine_;
};

#define OPT_THROW(cls, msg)                 \
  do {                                      \
    vm_.throw_exception(ctx, (cls), (msg)); \
    goto dispatch_exception;                \
  } while (0)
#define DIV_THROW(status)                   \
  do {                                      \
    vm_.throw_div_fault(ctx, (status));     \
    goto dispatch_exception;                \
  } while (0)

// Threaded dispatch: jump to the handler of the instruction at `ip`. Every
// handler ends in its own copy of this jump, so each one gets its own
// branch-predictor entry.
#define DISPATCH() goto *kDispatch[static_cast<std::uint8_t>(ip->op)]
#define NEXT() do { ++ip; DISPATCH(); } while (0)
// Taken branch to ip->d. A forward target is entered directly; a back edge
// (target at or before the branch) detours through the back_edge label.
#define BRANCH()                      \
  do {                                \
    target = code + ip->d;            \
    if (target <= ip) goto back_edge; \
    ip = target;                      \
    DISPATCH();                       \
  } while (0)

Slot OptimizingBackend::run(VMContext& ctx, const RCode& rc,
                            const Slot* args) {
  static const void* const kDispatch[] = {
#define OPT_ROP_LABEL(name) &&L_##name,
      OPT_ROPS(OPT_ROP_LABEL)
#undef OPT_ROP_LABEL
  };
  static_assert(std::size(kDispatch) == static_cast<std::size_t>(ROp::COUNT_),
                "every ROp needs a handler");

  Module& mod = vm_.module();
  const MethodDef& m = *rc.method;
  // Frame-entry budget check; also guards OSR continuations, which
  // osr_enter lands here.
  if (!budget_ok(vm_, ctx)) return Slot{};
  telemetry::record_invocation(m.id, 0, kTierIndex);
  const auto arena_mark = ctx.arena.mark();

  OptFrame frame;
  frame.rc = &rc;
  frame.regs = static_cast<Slot*>(
      ctx.arena.alloc(static_cast<std::size_t>(rc.num_regs) * sizeof(Slot)));
  for (std::size_t i = 0; i < m.num_args(); ++i) frame.regs[i] = args[i];
  frame.gc.parent = ctx.top_frame;
  frame.gc.enumerate = &OptFrame::enumerate;
  ctx.top_frame = &frame.gc;

  Slot* const R = frame.regs;
  const RInstr* const code = rc.code.data();
  const RInstr* ip = code;
  const RInstr* target = nullptr;  // taken branch's destination
  UnwindMachine uw;
  Slot result;

  // Deopt arming: snapshot the method's deopt generation at frame entry.
  // request_deopt bumps it, and the next taken back edge notices and bails
  // out through the side table. Single mode and bodies without a side table
  // keep dent null — the check below stays a single null test on the
  // back-edge path.
  CodeCache::Entry* dent = nullptr;
  std::uint32_t dgen = 0;
  if (engine_.tiered() && !rc.deopt_points.empty()) {
    dent = &engine_.code_entry(m.id);
    dgen = dent->deopt_generation.load(std::memory_order_relaxed);
  }

  // Fuel window: this tier has no OSR counter to piggyback on, so it counts
  // back edges only while metering. The count sits on the back_edge path,
  // which every taken back edge already visits for its safepoint poll, so
  // the threaded handlers themselves carry no fuel code.
  PulseWindow win(ctx.fuel, 0);

  // Frame teardown runs on every exit, native C++ unwinds included, so a
  // failed nested compile cannot leave ctx.top_frame at this dead frame.
  struct FrameExit {
    VMContext& ctx;
    GcFrame* parent;
    FrameArena::Mark arena_mark;
    PulseWindow& win;
    ~FrameExit() {
      win.charge_residual(ctx.fuel);
      ctx.top_frame = parent;
      ctx.arena.release(arena_mark);
    }
  } frame_exit{ctx, frame.gc.parent, arena_mark, win};

  DISPATCH();

  L_NOP_R:
  L_SAFEPOINT:
    NEXT();
  L_CARDMARK:
    // Null guard: the preceding store threw before this point if the
    // object was null, but CSE may have sunk the mark past a re-entry.
    if (R[ip->a].ref != nullptr) gc_write_barrier(R[ip->a].ref);
    NEXT();
  L_MOV:
  L_MEMLD:
  L_MEMST:
    R[ip->d] = R[ip->a];
    NEXT();
  L_LDI:
    R[ip->d].raw = static_cast<std::uint64_t>(ip->imm.i64);
    NEXT();
  L_LDSTR_R: {
    ObjRef s = vm_.heap().alloc_string(mod.string_at(ip->a), &ctx.tlab);
    if (s == nullptr) {
      OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
    }
    R[ip->d] = Slot::from_ref(s);
    NEXT();
  }

  L_ADD_I4: R[ip->d].i32 = arith::add_i32(R[ip->a].i32, R[ip->b].i32); NEXT();
  L_SUB_I4: R[ip->d].i32 = arith::sub_i32(R[ip->a].i32, R[ip->b].i32); NEXT();
  L_MUL_I4: R[ip->d].i32 = arith::mul_i32(R[ip->a].i32, R[ip->b].i32); NEXT();
  L_NEG_I4: R[ip->d].i32 = arith::sub_i32(0, R[ip->a].i32); NEXT();
  L_ADD_I8: R[ip->d].i64 = arith::add_i64(R[ip->a].i64, R[ip->b].i64); NEXT();
  L_SUB_I8: R[ip->d].i64 = arith::sub_i64(R[ip->a].i64, R[ip->b].i64); NEXT();
  L_MUL_I8: R[ip->d].i64 = arith::mul_i64(R[ip->a].i64, R[ip->b].i64); NEXT();
  L_NEG_I8: R[ip->d].i64 = arith::sub_i64(0, R[ip->a].i64); NEXT();
  L_ADD_R4: R[ip->d].f32 = R[ip->a].f32 + R[ip->b].f32; NEXT();
  L_SUB_R4: R[ip->d].f32 = R[ip->a].f32 - R[ip->b].f32; NEXT();
  L_MUL_R4: R[ip->d].f32 = R[ip->a].f32 * R[ip->b].f32; NEXT();
  L_DIV_R4: R[ip->d].f32 = R[ip->a].f32 / R[ip->b].f32; NEXT();
  L_REM_R4: R[ip->d].f32 = std::fmod(R[ip->a].f32, R[ip->b].f32); NEXT();
  L_NEG_R4: R[ip->d].f32 = -R[ip->a].f32; NEXT();
  L_ADD_R8: R[ip->d].f64 = R[ip->a].f64 + R[ip->b].f64; NEXT();
  L_SUB_R8: R[ip->d].f64 = R[ip->a].f64 - R[ip->b].f64; NEXT();
  L_MUL_R8: R[ip->d].f64 = R[ip->a].f64 * R[ip->b].f64; NEXT();
  L_DIV_R8: R[ip->d].f64 = R[ip->a].f64 / R[ip->b].f64; NEXT();
  L_REM_R8: R[ip->d].f64 = std::fmod(R[ip->a].f64, R[ip->b].f64); NEXT();
  L_NEG_R8: R[ip->d].f64 = -R[ip->a].f64; NEXT();

  L_DIV_I4: {
    std::int32_t out;
    const auto s = arith::div_i32(R[ip->a].i32, R[ip->b].i32, &out);
    if (s != arith::DivStatus::Ok) DIV_THROW(s);
    R[ip->d].i32 = out;
    NEXT();
  }
  L_REM_I4: {
    std::int32_t out;
    const auto s = arith::rem_i32(R[ip->a].i32, R[ip->b].i32, &out);
    if (s != arith::DivStatus::Ok) DIV_THROW(s);
    R[ip->d].i32 = out;
    NEXT();
  }
  L_DIV_I8: {
    std::int64_t out;
    const auto s = arith::div_i64(R[ip->a].i64, R[ip->b].i64, &out);
    if (s != arith::DivStatus::Ok) DIV_THROW(s);
    R[ip->d].i64 = out;
    NEXT();
  }
  L_REM_I8: {
    std::int64_t out;
    const auto s = arith::rem_i64(R[ip->a].i64, R[ip->b].i64, &out);
    if (s != arith::DivStatus::Ok) DIV_THROW(s);
    R[ip->d].i64 = out;
    NEXT();
  }

  L_ADDI_I4:
    R[ip->d].i32 = arith::add_i32(R[ip->a].i32, static_cast<std::int32_t>(ip->imm.i64));
    NEXT();
  L_SUBI_I4:
    R[ip->d].i32 = arith::sub_i32(R[ip->a].i32, static_cast<std::int32_t>(ip->imm.i64));
    NEXT();
  L_MULI_I4:
    R[ip->d].i32 = arith::mul_i32(R[ip->a].i32, static_cast<std::int32_t>(ip->imm.i64));
    NEXT();
  L_DIVI_I4: {
    std::int32_t out;
    const auto s = arith::div_i32(R[ip->a].i32,
                                  static_cast<std::int32_t>(ip->imm.i64), &out);
    if (s != arith::DivStatus::Ok) DIV_THROW(s);
    R[ip->d].i32 = out;
    NEXT();
  }
  L_REMI_I4: {
    std::int32_t out;
    const auto s = arith::rem_i32(R[ip->a].i32,
                                  static_cast<std::int32_t>(ip->imm.i64), &out);
    if (s != arith::DivStatus::Ok) DIV_THROW(s);
    R[ip->d].i32 = out;
    NEXT();
  }
  L_ADDI_I8:
    R[ip->d].i64 = arith::add_i64(R[ip->a].i64, ip->imm.i64);
    NEXT();
  L_SUBI_I8:
    R[ip->d].i64 = arith::sub_i64(R[ip->a].i64, ip->imm.i64);
    NEXT();
  L_MULI_I8:
    R[ip->d].i64 = arith::mul_i64(R[ip->a].i64, ip->imm.i64);
    NEXT();
  L_DIVI_I8: {
    std::int64_t out;
    const auto s = arith::div_i64(R[ip->a].i64, ip->imm.i64, &out);
    if (s != arith::DivStatus::Ok) DIV_THROW(s);
    R[ip->d].i64 = out;
    NEXT();
  }
  L_REMI_I8: {
    std::int64_t out;
    const auto s = arith::rem_i64(R[ip->a].i64, ip->imm.i64, &out);
    if (s != arith::DivStatus::Ok) DIV_THROW(s);
    R[ip->d].i64 = out;
    NEXT();
  }
  L_ADDI_R8: {
    Slot c;
    c.raw = static_cast<std::uint64_t>(ip->imm.i64);
    R[ip->d].f64 = R[ip->a].f64 + c.f64;
    NEXT();
  }
  L_MULI_R8: {
    Slot c;
    c.raw = static_cast<std::uint64_t>(ip->imm.i64);
    R[ip->d].f64 = R[ip->a].f64 * c.f64;
    NEXT();
  }

  L_AND_I4: R[ip->d].i32 = R[ip->a].i32 & R[ip->b].i32; NEXT();
  L_OR_I4: R[ip->d].i32 = R[ip->a].i32 | R[ip->b].i32; NEXT();
  L_XOR_I4: R[ip->d].i32 = R[ip->a].i32 ^ R[ip->b].i32; NEXT();
  L_NOT_I4: R[ip->d].i32 = ~R[ip->a].i32; NEXT();
  L_SHL_I4: R[ip->d].i32 = arith::shl_i32(R[ip->a].i32, R[ip->b].i32); NEXT();
  L_SHR_I4: R[ip->d].i32 = arith::shr_i32(R[ip->a].i32, R[ip->b].i32); NEXT();
  L_SHRU_I4: R[ip->d].i32 = arith::shru_i32(R[ip->a].i32, R[ip->b].i32); NEXT();
  L_AND_I8: R[ip->d].i64 = R[ip->a].i64 & R[ip->b].i64; NEXT();
  L_OR_I8: R[ip->d].i64 = R[ip->a].i64 | R[ip->b].i64; NEXT();
  L_XOR_I8: R[ip->d].i64 = R[ip->a].i64 ^ R[ip->b].i64; NEXT();
  L_NOT_I8: R[ip->d].i64 = ~R[ip->a].i64; NEXT();
  L_SHL_I8: R[ip->d].i64 = arith::shl_i64(R[ip->a].i64, R[ip->b].i32); NEXT();
  L_SHR_I8: R[ip->d].i64 = arith::shr_i64(R[ip->a].i64, R[ip->b].i32); NEXT();
  L_SHRU_I8: R[ip->d].i64 = arith::shru_i64(R[ip->a].i64, R[ip->b].i32); NEXT();
  L_SHLI_I4:
    R[ip->d].i32 = arith::shl_i32(R[ip->a].i32, static_cast<std::int32_t>(ip->imm.i64));
    NEXT();
  L_SHRI_I4:
    R[ip->d].i32 = arith::shr_i32(R[ip->a].i32, static_cast<std::int32_t>(ip->imm.i64));
    NEXT();
  L_SHLI_I8:
    R[ip->d].i64 = arith::shl_i64(R[ip->a].i64, static_cast<std::int32_t>(ip->imm.i64));
    NEXT();
  L_SHRI_I8:
    R[ip->d].i64 = arith::shr_i64(R[ip->a].i64, static_cast<std::int32_t>(ip->imm.i64));
    NEXT();
  L_ANDI_I4:
    R[ip->d].i32 = R[ip->a].i32 & static_cast<std::int32_t>(ip->imm.i64);
    NEXT();

  L_CEQ_I4: R[ip->d] = Slot::from_i32(R[ip->a].i32 == R[ip->b].i32); NEXT();
  L_CGT_I4: R[ip->d] = Slot::from_i32(R[ip->a].i32 > R[ip->b].i32); NEXT();
  L_CLT_I4: R[ip->d] = Slot::from_i32(R[ip->a].i32 < R[ip->b].i32); NEXT();
  L_CEQ_I8: R[ip->d] = Slot::from_i32(R[ip->a].i64 == R[ip->b].i64); NEXT();
  L_CGT_I8: R[ip->d] = Slot::from_i32(R[ip->a].i64 > R[ip->b].i64); NEXT();
  L_CLT_I8: R[ip->d] = Slot::from_i32(R[ip->a].i64 < R[ip->b].i64); NEXT();
  L_CEQ_R4: R[ip->d] = Slot::from_i32(R[ip->a].f32 == R[ip->b].f32); NEXT();
  L_CGT_R4: R[ip->d] = Slot::from_i32(R[ip->a].f32 > R[ip->b].f32); NEXT();
  L_CLT_R4: R[ip->d] = Slot::from_i32(R[ip->a].f32 < R[ip->b].f32); NEXT();
  L_CEQ_R8: R[ip->d] = Slot::from_i32(R[ip->a].f64 == R[ip->b].f64); NEXT();
  L_CGT_R8: R[ip->d] = Slot::from_i32(R[ip->a].f64 > R[ip->b].f64); NEXT();
  L_CLT_R8: R[ip->d] = Slot::from_i32(R[ip->a].f64 < R[ip->b].f64); NEXT();
  L_CEQ_REF: R[ip->d] = Slot::from_i32(R[ip->a].ref == R[ip->b].ref); NEXT();

  L_CV_I4_I8: R[ip->d].i64 = R[ip->a].i32; NEXT();
  L_CV_I4_R4: R[ip->d] = Slot::from_f32(static_cast<float>(R[ip->a].i32)); NEXT();
  L_CV_I4_R8: R[ip->d].f64 = R[ip->a].i32; NEXT();
  L_CV_I8_I4: R[ip->d] = Slot::from_i32(static_cast<std::int32_t>(R[ip->a].i64)); NEXT();
  L_CV_I8_R4: R[ip->d] = Slot::from_f32(static_cast<float>(R[ip->a].i64)); NEXT();
  L_CV_I8_R8: R[ip->d].f64 = static_cast<double>(R[ip->a].i64); NEXT();
  L_CV_R4_I4: R[ip->d] = Slot::from_i32(arith::f_to_i32(R[ip->a].f32)); NEXT();
  L_CV_R4_I8: R[ip->d].i64 = arith::f_to_i64(R[ip->a].f32); NEXT();
  L_CV_R4_R8: R[ip->d].f64 = R[ip->a].f32; NEXT();
  L_CV_R8_I4: R[ip->d] = Slot::from_i32(arith::f_to_i32(R[ip->a].f64)); NEXT();
  L_CV_R8_I8: R[ip->d].i64 = arith::f_to_i64(R[ip->a].f64); NEXT();
  L_CV_R8_R4: R[ip->d] = Slot::from_f32(static_cast<float>(R[ip->a].f64)); NEXT();
  L_SEXT8: R[ip->d] = Slot::from_i32(static_cast<std::int8_t>(R[ip->a].i32)); NEXT();
  L_ZEXT8: R[ip->d] = Slot::from_i32(static_cast<std::uint8_t>(R[ip->a].i32)); NEXT();
  L_SEXT16: R[ip->d] = Slot::from_i32(static_cast<std::int16_t>(R[ip->a].i32)); NEXT();
  L_ZEXT16: R[ip->d] = Slot::from_i32(static_cast<std::uint16_t>(R[ip->a].i32)); NEXT();

  L_JMP:
  L_JMPB:
    BRANCH();
  L_JZ_I4: if (R[ip->a].i32 == 0) BRANCH(); NEXT();
  L_JNZ_I4: if (R[ip->a].i32 != 0) BRANCH(); NEXT();
  L_JZ_I8: if (R[ip->a].i64 == 0) BRANCH(); NEXT();
  L_JNZ_I8: if (R[ip->a].i64 != 0) BRANCH(); NEXT();
  L_JZ_REF: if (R[ip->a].ref == nullptr) BRANCH(); NEXT();
  L_JNZ_REF: if (R[ip->a].ref != nullptr) BRANCH(); NEXT();

  L_JEQ_I4: if (R[ip->a].i32 == R[ip->b].i32) BRANCH(); NEXT();
  L_JNE_I4: if (R[ip->a].i32 != R[ip->b].i32) BRANCH(); NEXT();
  L_JLT_I4: if (R[ip->a].i32 < R[ip->b].i32) BRANCH(); NEXT();
  L_JLE_I4: if (R[ip->a].i32 <= R[ip->b].i32) BRANCH(); NEXT();
  L_JGT_I4: if (R[ip->a].i32 > R[ip->b].i32) BRANCH(); NEXT();
  L_JGE_I4: if (R[ip->a].i32 >= R[ip->b].i32) BRANCH(); NEXT();
  L_JEQ_I8: if (R[ip->a].i64 == R[ip->b].i64) BRANCH(); NEXT();
  L_JNE_I8: if (R[ip->a].i64 != R[ip->b].i64) BRANCH(); NEXT();
  L_JLT_I8: if (R[ip->a].i64 < R[ip->b].i64) BRANCH(); NEXT();
  L_JLE_I8: if (R[ip->a].i64 <= R[ip->b].i64) BRANCH(); NEXT();
  L_JGT_I8: if (R[ip->a].i64 > R[ip->b].i64) BRANCH(); NEXT();
  L_JGE_I8: if (R[ip->a].i64 >= R[ip->b].i64) BRANCH(); NEXT();
  L_JEQ_R4: if (R[ip->a].f32 == R[ip->b].f32) BRANCH(); NEXT();
  L_JNE_R4: if (R[ip->a].f32 != R[ip->b].f32) BRANCH(); NEXT();
  L_JLT_R4: if (R[ip->a].f32 < R[ip->b].f32) BRANCH(); NEXT();
  L_JLE_R4: if (R[ip->a].f32 <= R[ip->b].f32) BRANCH(); NEXT();
  L_JGT_R4: if (R[ip->a].f32 > R[ip->b].f32) BRANCH(); NEXT();
  L_JGE_R4: if (R[ip->a].f32 >= R[ip->b].f32) BRANCH(); NEXT();
  L_JEQ_R8: if (R[ip->a].f64 == R[ip->b].f64) BRANCH(); NEXT();
  L_JNE_R8: if (R[ip->a].f64 != R[ip->b].f64) BRANCH(); NEXT();
  L_JLT_R8: if (R[ip->a].f64 < R[ip->b].f64) BRANCH(); NEXT();
  L_JLE_R8: if (R[ip->a].f64 <= R[ip->b].f64) BRANCH(); NEXT();
  L_JGT_R8: if (R[ip->a].f64 > R[ip->b].f64) BRANCH(); NEXT();
  L_JGE_R8: if (R[ip->a].f64 >= R[ip->b].f64) BRANCH(); NEXT();
  L_JEQ_REF: if (R[ip->a].ref == R[ip->b].ref) BRANCH(); NEXT();
  L_JNE_REF: if (R[ip->a].ref != R[ip->b].ref) BRANCH(); NEXT();

  L_JEQI_I4: if (R[ip->a].i32 == static_cast<std::int32_t>(ip->imm.i64)) BRANCH(); NEXT();
  L_JNEI_I4: if (R[ip->a].i32 != static_cast<std::int32_t>(ip->imm.i64)) BRANCH(); NEXT();
  L_JLTI_I4: if (R[ip->a].i32 < static_cast<std::int32_t>(ip->imm.i64)) BRANCH(); NEXT();
  L_JLEI_I4: if (R[ip->a].i32 <= static_cast<std::int32_t>(ip->imm.i64)) BRANCH(); NEXT();
  L_JGTI_I4: if (R[ip->a].i32 > static_cast<std::int32_t>(ip->imm.i64)) BRANCH(); NEXT();
  L_JGEI_I4: if (R[ip->a].i32 >= static_cast<std::int32_t>(ip->imm.i64)) BRANCH(); NEXT();

  L_CALL_R: {
    vm_.safepoint_poll(ctx);
    const auto argc = static_cast<std::int32_t>(ip->imm.i64);
    Slot argbuf[kMaxCallArgs];
    for (std::int32_t k = 0; k < argc; ++k) {
      argbuf[k] = R[rc.args_pool[static_cast<std::size_t>(ip->b + k)]];
    }
    // Hot-to-hot fast path: a published body runs directly. A cold
    // callee (tiered mode only) routes back through the engine, which
    // counts the call and runs it on its current tier.
    const RCode* callee = engine_.opt_code_for_call(ip->a);
    const Slot r = callee != nullptr ? run(ctx, *callee, argbuf)
                                     : engine_.call(ctx, ip->a, argbuf);
    if (ctx.has_pending()) goto dispatch_exception;
    if (ip->d >= 0) R[ip->d] = r;
    NEXT();
  }
  L_CALLINTR_R: {
    const auto argc = static_cast<std::int32_t>(ip->imm.i64);
    Slot argbuf[kMaxIntrinsicArgs];
    for (std::int32_t k = 0; k < argc; ++k) {
      argbuf[k] = R[rc.args_pool[static_cast<std::size_t>(ip->b + k)]];
    }
    Slot r;
    intrinsic(ip->a).fn(ctx, argbuf, &r);
    if (ctx.has_pending()) goto dispatch_exception;
    if (ip->d >= 0) R[ip->d] = r;
    NEXT();
  }
  L_MATH1_R8:
    // imm is the vm::Intr id (position-independent); the table lookup is
    // a dense switch the branch predictor resolves per call site.
    R[ip->d].f64 =
        regir::math1_fn(static_cast<std::int32_t>(ip->imm.i64))(R[ip->a].f64);
    NEXT();
  L_MATH2_R8:
    R[ip->d].f64 = regir::math2_fn(static_cast<std::int32_t>(ip->imm.i64))(
        R[ip->a].f64, R[ip->b].f64);
    NEXT();
  L_ABS_I4_R: R[ip->d] = Slot::from_i32(R[ip->a].i32 < 0 ? -R[ip->a].i32 : R[ip->a].i32); NEXT();
  L_ABS_I8_R: R[ip->d].i64 = R[ip->a].i64 < 0 ? -R[ip->a].i64 : R[ip->a].i64; NEXT();
  L_ABS_R4_R: R[ip->d] = Slot::from_f32(std::fabs(R[ip->a].f32)); NEXT();
  L_ABS_R8_R: R[ip->d].f64 = std::fabs(R[ip->a].f64); NEXT();
  L_MAX_I4_R: R[ip->d] = Slot::from_i32(std::max(R[ip->a].i32, R[ip->b].i32)); NEXT();
  L_MAX_I8_R: R[ip->d].i64 = std::max(R[ip->a].i64, R[ip->b].i64); NEXT();
  L_MAX_R4_R: R[ip->d] = Slot::from_f32(std::fmax(R[ip->a].f32, R[ip->b].f32)); NEXT();
  L_MAX_R8_R: R[ip->d].f64 = std::fmax(R[ip->a].f64, R[ip->b].f64); NEXT();
  L_MIN_I4_R: R[ip->d] = Slot::from_i32(std::min(R[ip->a].i32, R[ip->b].i32)); NEXT();
  L_MIN_I8_R: R[ip->d].i64 = std::min(R[ip->a].i64, R[ip->b].i64); NEXT();
  L_MIN_R4_R: R[ip->d] = Slot::from_f32(std::fmin(R[ip->a].f32, R[ip->b].f32)); NEXT();
  L_MIN_R8_R: R[ip->d].f64 = std::fmin(R[ip->a].f64, R[ip->b].f64); NEXT();

  L_RET_R:
    if (ip->a >= 0) result = R[ip->a];
    return result;

  L_NEWOBJ_R: {
    ObjRef obj = vm_.heap().alloc_instance(ip->a, &ctx.tlab);
    if (obj == nullptr) {
      OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
    }
    R[ip->d] = Slot::from_ref(obj);
    NEXT();
  }
  L_LDFLD_R: {
    ObjRef obj = R[ip->a].ref;
    if (obj == nullptr) OPT_THROW(mod.null_reference_class(), "ldfld");
    R[ip->d] = obj->fields()[ip->b];
    NEXT();
  }
  L_STFLD_R: {
    ObjRef obj = R[ip->a].ref;
    if (obj == nullptr) OPT_THROW(mod.null_reference_class(), "stfld");
    obj->fields()[ip->b] = R[ip->d];
    NEXT();
  }
  L_LDSFLD_R:
    R[ip->d] = mod.statics(ip->a)[ip->b];
    NEXT();
  L_STSFLD_R:
    mod.statics(ip->a)[ip->b] = R[ip->d];
    NEXT();

  L_NEWARR_R: {
    const std::int32_t len = R[ip->a].i32;
    if (len < 0) OPT_THROW(mod.index_range_class(), "negative array size");
    ObjRef arr =
        vm_.heap().alloc_array(static_cast<ValType>(ip->b), len, &ctx.tlab);
    if (arr == nullptr) {
      OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
    }
    R[ip->d] = Slot::from_ref(arr);
    NEXT();
  }
  L_LDLEN_R: {
    ObjRef arr = R[ip->a].ref;
    if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "ldlen");
    R[ip->d] = Slot::from_i32(arr->length);
    NEXT();
  }
  L_CHK_BOUNDS: {
    ObjRef arr = R[ip->a].ref;
    if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "ldelem");
    const std::int32_t idx = R[ip->b].i32;
    if (idx < 0 || idx >= arr->length) {
      OPT_THROW(mod.index_range_class(), "index out of range");
    }
    NEXT();
  }
  L_JLT_LEN: {
    ObjRef arr = R[ip->b].ref;
    if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "ldlen");
    if (R[ip->a].i32 < arr->length) BRANCH();
    NEXT();
  }

#define OPT_LDELEM(OPC, FIELD, FROM)                                     \
  L_##OPC: {                                                             \
    ObjRef arr = R[ip->a].ref;                                           \
    if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "ldelem"); \
    const std::int32_t idx = R[ip->b].i32;                               \
    if (idx < 0 || idx >= arr->length) {                                 \
      OPT_THROW(mod.index_range_class(), "index out of range");          \
    }                                                                    \
    R[ip->d] = Slot::FROM(arr->FIELD()[idx]);                            \
    NEXT();                                                              \
  }
  OPT_LDELEM(LDELEM_I4, i32_data, from_i32)
  OPT_LDELEM(LDELEM_I8, i64_data, from_i64)
  OPT_LDELEM(LDELEM_R4, f32_data, from_f32)
  OPT_LDELEM(LDELEM_R8, f64_data, from_f64)
  OPT_LDELEM(LDELEM_REF, ref_data, from_ref)
#undef OPT_LDELEM

#define OPT_LDELEMU(OPC, FIELD, FROM)                              \
  L_##OPC:                                                         \
    R[ip->d] = Slot::FROM(R[ip->a].ref->FIELD()[R[ip->b].i32]);    \
    NEXT();
  OPT_LDELEMU(LDELEMU_I4, i32_data, from_i32)
  OPT_LDELEMU(LDELEMU_I8, i64_data, from_i64)
  OPT_LDELEMU(LDELEMU_R4, f32_data, from_f32)
  OPT_LDELEMU(LDELEMU_R8, f64_data, from_f64)
  OPT_LDELEMU(LDELEMU_REF, ref_data, from_ref)
#undef OPT_LDELEMU

#define OPT_STELEM(OPC, FIELD, MEMBER)                                   \
  L_##OPC: {                                                             \
    ObjRef arr = R[ip->a].ref;                                           \
    if (arr == nullptr) OPT_THROW(mod.null_reference_class(), "stelem"); \
    const std::int32_t idx = R[ip->b].i32;                               \
    if (idx < 0 || idx >= arr->length) {                                 \
      OPT_THROW(mod.index_range_class(), "index out of range");          \
    }                                                                    \
    arr->FIELD()[idx] = R[ip->d].MEMBER;                                 \
    NEXT();                                                              \
  }
  OPT_STELEM(STELEM_I4, i32_data, i32)
  OPT_STELEM(STELEM_I8, i64_data, i64)
  OPT_STELEM(STELEM_R4, f32_data, f32)
  OPT_STELEM(STELEM_R8, f64_data, f64)
  OPT_STELEM(STELEM_REF, ref_data, ref)
#undef OPT_STELEM

#define OPT_STELEMU(OPC, FIELD, MEMBER)                      \
  L_##OPC:                                                   \
    R[ip->a].ref->FIELD()[R[ip->b].i32] = R[ip->d].MEMBER;   \
    NEXT();
  OPT_STELEMU(STELEMU_I4, i32_data, i32)
  OPT_STELEMU(STELEMU_I8, i64_data, i64)
  OPT_STELEMU(STELEMU_R4, f32_data, f32)
  OPT_STELEMU(STELEMU_R8, f64_data, f64)
  OPT_STELEMU(STELEMU_REF, ref_data, ref)
#undef OPT_STELEMU

  L_NEWMAT_R: {
    const std::int32_t rows = R[ip->a].i32;
    const std::int32_t cols = R[ip->b].i32;
    if (rows < 0 || cols < 0) {
      OPT_THROW(mod.index_range_class(), "negative matrix size");
    }
    ObjRef mat = vm_.heap().alloc_matrix2(
        static_cast<ValType>(ip->imm.i64), rows, cols, &ctx.tlab);
    if (mat == nullptr) {
      OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
    }
    R[ip->d] = Slot::from_ref(mat);
    NEXT();
  }

#define OPT_LDEL2(OPC, FIELD, FROM)                                       \
  L_##OPC: {                                                              \
    ObjRef mat = R[ip->a].ref;                                            \
    if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "ldelem2"); \
    const std::int32_t r2 = R[ip->b].i32;                                 \
    const std::int32_t c2 =                                               \
        R[static_cast<std::int32_t>(ip->imm.i64 & kRegFieldMask)].i32;    \
    if (r2 < 0 || r2 >= mat->length || c2 < 0 || c2 >= mat->cols) {      \
      OPT_THROW(mod.index_range_class(), "matrix index out of range");    \
    }                                                                     \
    R[ip->d] = Slot::FROM(                                                \
        mat->FIELD()[static_cast<std::int64_t>(r2) * mat->cols + c2]);    \
    NEXT();                                                               \
  }
  OPT_LDEL2(LDEL2_I4, i32_data, from_i32)
  OPT_LDEL2(LDEL2_I8, i64_data, from_i64)
  OPT_LDEL2(LDEL2_R4, f32_data, from_f32)
  OPT_LDEL2(LDEL2_R8, f64_data, from_f64)
  OPT_LDEL2(LDEL2_REF, ref_data, from_ref)
#undef OPT_LDEL2

#define OPT_STEL2(OPC, FIELD, MEMBER)                                     \
  L_##OPC: {                                                              \
    ObjRef mat = R[ip->a].ref;                                            \
    if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "stelem2"); \
    const std::int32_t r2 = R[ip->b].i32;                                 \
    const std::int32_t c2 =                                               \
        R[static_cast<std::int32_t>(ip->imm.i64 & kRegFieldMask)].i32;    \
    const std::int32_t v2 = static_cast<std::int32_t>(                    \
        (ip->imm.i64 >> kRegFieldBits) & kRegFieldMask);                  \
    if (r2 < 0 || r2 >= mat->length || c2 < 0 || c2 >= mat->cols) {      \
      OPT_THROW(mod.index_range_class(), "matrix index out of range");    \
    }                                                                     \
    mat->FIELD()[static_cast<std::int64_t>(r2) * mat->cols + c2] =        \
        R[v2].MEMBER;                                                     \
    NEXT();                                                               \
  }
  OPT_STEL2(STEL2_I4, i32_data, i32)
  OPT_STEL2(STEL2_I8, i64_data, i64)
  OPT_STEL2(STEL2_R4, f32_data, f32)
  OPT_STEL2(STEL2_R8, f64_data, f64)
  OPT_STEL2(STEL2_REF, ref_data, ref)
#undef OPT_STEL2

  L_LDEL2_SLOW: {
    ObjRef mat = R[ip->a].ref;
    const std::int32_t r2 = R[ip->b].i32;
    const std::int32_t c2 =
        R[static_cast<std::int32_t>(ip->imm.i64 & kRegFieldMask)].i32;
    std::int64_t i;
    if (!generic_mat_index(mat, r2, c2, &i)) {
      if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "ldelem2");
      OPT_THROW(mod.index_range_class(), "matrix index out of range");
    }
    switch (static_cast<ValType>((ip->imm.i64 >> 40) & 0xF)) {
      case ValType::I32: R[ip->d] = Slot::from_i32(mat->i32_data()[i]); break;
      case ValType::I64: R[ip->d] = Slot::from_i64(mat->i64_data()[i]); break;
      case ValType::F32: R[ip->d] = Slot::from_f32(mat->f32_data()[i]); break;
      case ValType::F64: R[ip->d] = Slot::from_f64(mat->f64_data()[i]); break;
      default: R[ip->d] = Slot::from_ref(mat->ref_data()[i]); break;
    }
    NEXT();
  }
  L_STEL2_SLOW: {
    ObjRef mat = R[ip->a].ref;
    const std::int32_t r2 = R[ip->b].i32;
    const std::int32_t c2 =
        R[static_cast<std::int32_t>(ip->imm.i64 & kRegFieldMask)].i32;
    const std::int32_t v2 = static_cast<std::int32_t>(
        (ip->imm.i64 >> kRegFieldBits) & kRegFieldMask);
    std::int64_t i;
    if (!generic_mat_index(mat, r2, c2, &i)) {
      if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "stelem2");
      OPT_THROW(mod.index_range_class(), "matrix index out of range");
    }
    switch (static_cast<ValType>((ip->imm.i64 >> 40) & 0xF)) {
      case ValType::I32: mat->i32_data()[i] = R[v2].i32; break;
      case ValType::I64: mat->i64_data()[i] = R[v2].i64; break;
      case ValType::F32: mat->f32_data()[i] = R[v2].f32; break;
      case ValType::F64: mat->f64_data()[i] = R[v2].f64; break;
      default: mat->ref_data()[i] = R[v2].ref; break;
    }
    NEXT();
  }
  L_LDMROWS_R: {
    ObjRef mat = R[ip->a].ref;
    if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "ldmat");
    R[ip->d] = Slot::from_i32(mat->length);
    NEXT();
  }
  L_LDMCOLS_R: {
    ObjRef mat = R[ip->a].ref;
    if (mat == nullptr) OPT_THROW(mod.null_reference_class(), "ldmat");
    R[ip->d] = Slot::from_i32(mat->cols);
    NEXT();
  }

  L_BOX_R: {
    ObjRef box =
        vm_.heap().alloc_box(static_cast<ValType>(ip->b), R[ip->a], &ctx.tlab);
    if (box == nullptr) {
      OPT_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
    }
    R[ip->d] = Slot::from_ref(box);
    NEXT();
  }
  L_UNBOX_R: {
    ObjRef box = R[ip->a].ref;
    if (box == nullptr) OPT_THROW(mod.null_reference_class(), "unbox");
    if (box->kind != ObjKind::Boxed ||
        box->elem != static_cast<ValType>(ip->b)) {
      OPT_THROW(mod.invalid_cast_class(), "unbox type mismatch");
    }
    R[ip->d] = box->fields()[0];
    NEXT();
  }

  L_THROW_R: {
    ObjRef exc = R[ip->a].ref;
    if (exc == nullptr) OPT_THROW(mod.null_reference_class(), "throw null");
    ctx.pending_exception = exc;
    goto dispatch_exception;
  }
  L_LEAVE_R: {
    const UnwindAction a = uw.on_leave(m, ip->il_pc, ip->a);  // a = IL target
    ip = code + rc.il2rpc[static_cast<std::size_t>(a.pc)];
    DISPATCH();
  }
  L_ENDFINALLY_R: {
    const UnwindAction a = uw.on_endfinally(mod, m);
    switch (a.kind) {
      case UnwindAction::Kind::Resume:
      case UnwindAction::Kind::EnterFinally:
        ip = code + rc.il2rpc[static_cast<std::size_t>(a.pc)];
        DISPATCH();
      case UnwindAction::Kind::EnterCatch:
        R[rc.handler_exc_reg[static_cast<std::size_t>(a.handler_index)]] =
            Slot::from_ref(uw.exception());
        ip = code + rc.il2rpc[static_cast<std::size_t>(a.pc)];
        DISPATCH();
      case UnwindAction::Kind::Propagate:
        ctx.pending_exception = uw.exception();
        return result;
    }
    NEXT();
  }

  L_VECLOOP:
    run_vec_loop(vm_, ctx, rc.vec_loops[static_cast<std::size_t>(ip->a)], R,
                 win);
    NEXT();

  // A taken back edge (ip still at the branch, `target` its destination) is
  // a safepoint: poll, tick the fuel window, and check for a deopt request.
  // A fuel or deadline kill or a deopt leaves ip at the branch, so the deopt
  // side table and the unwinder's il_pc mapping index a real safepoint.
  // Deopt waits for an idle unwind machine — a finally running on behalf of
  // a leave/throw holds state only this frame knows.
back_edge:
  vm_.safepoint_poll(ctx);
  if (win.fuel_on && win.tick() && !win.pulse(vm_, ctx)) goto deopt_bailout;
  if (dent != nullptr && uw.idle() &&
      dent->deopt_generation.load(std::memory_order_relaxed) != dgen) {
    goto deopt_bailout;
  }
  ip = target;
  DISPATCH();

deopt_bailout:
  // A pending FuelExhausted raised at the back-edge safepoint unwinds like
  // any managed exception; only real deopt requests fall through below.
  if (ctx.has_pending()) goto dispatch_exception;
  // The invocation finishes in an interpreter continuation built from the
  // side-table record at this branch; its result IS this frame's result.
  return engine_.deopt_bailout(ctx, rc, static_cast<std::int32_t>(ip - code),
                               R);

dispatch_exception: {
  ObjRef exc = ctx.pending_exception;
  ctx.pending_exception = nullptr;
  const UnwindAction a = uw.on_throw(mod, m, ip->il_pc, exc);
  switch (a.kind) {
    case UnwindAction::Kind::EnterCatch:
      R[rc.handler_exc_reg[static_cast<std::size_t>(a.handler_index)]] =
          Slot::from_ref(uw.exception());
      ip = code + rc.il2rpc[static_cast<std::size_t>(a.pc)];
      DISPATCH();
    case UnwindAction::Kind::EnterFinally:
      ip = code + rc.il2rpc[static_cast<std::size_t>(a.pc)];
      DISPATCH();
    default:
      ctx.pending_exception = exc;
      return result;
  }
}
}

#undef OPT_THROW
#undef DIV_THROW
#undef DISPATCH
#undef NEXT
#undef BRANCH
#undef OPT_ROPS

}  // namespace

std::unique_ptr<OptBackend> make_optimizing_backend(VirtualMachine& vm,
                                                    TieredEngine& engine) {
  return std::make_unique<OptimizingBackend>(vm, engine);
}

}  // namespace hpcnet::vm

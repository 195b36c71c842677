// Register-IR compiler: the optimization passes and profile quirks behind
// the paper's §5 findings, checked structurally (what code is emitted) and
// behaviourally (every flag combination computes the interpreter's answer).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <tuple>

#include "vm/regcompile.hpp"
#include "vm/regir_ops.hpp"
#include "vm_test_util.hpp"

namespace hpcnet::test {
namespace {

using regir::RCode;
using regir::RInstr;
using regir::ROp;

std::size_t count_op(const RCode& rc, ROp op) {
  return static_cast<std::size_t>(
      std::count_if(rc.code.begin(), rc.code.end(),
                    [&](const RInstr& in) { return in.op == op; }));
}

/// The Table 5 division loop.
std::int32_t build_div_loop(Module& mod) {
  ILBuilder b(mod, "t_divloop", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto x = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(2147483647).stloc(x);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(x).ldc_i4(3).div().stloc(x);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(x).ret();
  return b.finish();
}

TEST(RegIr, CopyPropagationShrinksCode) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  EngineFlags with = profiles::clr11().flags;
  EngineFlags without = with;
  without.copy_propagation = false;
  const RCode a = regir::compile(vm.module(), vm.module().method(m), with);
  const RCode b = regir::compile(vm.module(), vm.module().method(m), without);
  EXPECT_LT(a.code.size(), b.code.size());
}

TEST(RegIr, Ibm131FusesImmediateDivide) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::ibm131().flags);
  EXPECT_EQ(count_op(rc, ROp::DIVI_I4), 1u);
  EXPECT_EQ(count_op(rc, ROp::DIV_I4), 0u);
}

TEST(RegIr, Clr11SpillsDivisorConstant) {
  // The paper's Table 6 quirk: the CLR stores the divisor in a temporary.
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  EXPECT_EQ(count_op(rc, ROp::DIV_I4), 1u);   // real divide
  EXPECT_EQ(count_op(rc, ROp::DIVI_I4), 0u);  // no immediate form
  // The redundant pinned constant round-trip is present.
  std::size_t pinned = 0;
  for (const RInstr& in : rc.code) {
    if (in.pinned()) ++pinned;
  }
  EXPECT_GE(pinned, 2u);
}

TEST(RegIr, FusedCompareBranchIsProfileGated) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode fused = regir::compile(vm.module(), vm.module().method(m),
                                     profiles::clr11().flags);
  const RCode split = regir::compile(vm.module(), vm.module().method(m),
                                     profiles::sun14().flags);
  EXPECT_GE(count_op(fused, ROp::JLT_I4), 1u);
  EXPECT_EQ(count_op(split, ROp::JLT_I4), 0u);
  EXPECT_GE(count_op(split, ROp::CLT_I4), 1u);
  EXPECT_LE(fused.code.size(), split.code.size());
}

TEST(RegIr, EnregistrationLimitSpillsToMemoryOps) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "t_spill", {{}, ValType::I32});
  std::vector<std::int32_t> locs;
  for (int i = 0; i < 70; ++i) locs.push_back(b.add_local(ValType::I32));
  for (int i = 0; i < 70; ++i) b.ldc_i4(i).stloc(locs[static_cast<std::size_t>(i)]);
  b.ldloc(locs[69]).ldloc(locs[68]).add().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const RCode limited = regir::compile(vm.module(), vm.module().method(m),
                                       profiles::clr11().flags);  // limit 64
  const RCode unlimited = regir::compile(vm.module(), vm.module().method(m),
                                         profiles::ibm131().flags);
  EXPECT_GT(count_op(limited, ROp::MEMLD) + count_op(limited, ROp::MEMST), 0u);
  EXPECT_EQ(count_op(unlimited, ROp::MEMLD) + count_op(unlimited, ROp::MEMST),
            0u);
}

TEST(RegIr, BceRemovesRangeChecksOnlyWhenEnabled) {
  VirtualMachine vm;
  // for (i = 0; i < a.Length; i++) a[i] = i;
  ILBuilder b(vm.module(), "t_bce", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(arr).ldloc(i).ldloc(i).stelem(ValType::I32);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(arr).ldlen().blt(top);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32).ret();
  const auto m = b.finish();
  verify(vm.module(), m);

  const RCode on = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  EngineFlags off_flags = profiles::clr11().flags;
  off_flags.bounds_check_elim = false;
  const RCode off = regir::compile(vm.module(), vm.module().method(m),
                                   off_flags);
  // With BCE the in-loop store's range check is gone and the guard fused.
  EXPECT_LT(count_op(on, ROp::CHK_BOUNDS), count_op(off, ROp::CHK_BOUNDS));
  EXPECT_EQ(count_op(on, ROp::JLT_LEN), 1u);
  EXPECT_EQ(count_op(off, ROp::JLT_LEN), 0u);
}

TEST(RegIr, BceDoesNotFireOnVariableBound) {
  VirtualMachine vm;
  // Same loop but bounded by a separate local: checks must remain.
  ILBuilder b(vm.module(), "t_nobce", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto n = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).stloc(n);
  b.ldloc(n).newarr(ValType::I32).stloc(arr);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(arr).ldloc(i).ldloc(i).stelem(ValType::I32);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(n).blt(top);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32).ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  EXPECT_EQ(count_op(rc, ROp::CHK_BOUNDS), 2u);  // in-loop store + final load
  EXPECT_EQ(count_op(rc, ROp::JLT_LEN), 0u);
}

TEST(RegIr, RefRegistersAreExactlyTheRefTyped) {
  VirtualMachine vm;
  ILBuilder b(vm.module(), "t_refs", {{ValType::Ref}, ValType::I32});
  const auto l = b.add_local(ValType::Ref);
  b.ldarg(0).stloc(l);
  b.ldloc(l).ldlen().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  for (std::int32_t r : rc.ref_regs) {
    EXPECT_EQ(rc.reg_types[static_cast<std::size_t>(r)], ValType::Ref);
  }
  std::size_t ref_typed = 0;
  for (ValType t : rc.reg_types) {
    if (t == ValType::Ref) ++ref_typed;
  }
  EXPECT_EQ(rc.ref_regs.size(), ref_typed);
}

TEST(RegIr, DisassemblyIsNonEmptyAndNamed) {
  VirtualMachine vm;
  const auto m = build_div_loop(vm.module());
  verify(vm.module(), m);
  const RCode rc = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);
  const std::string text = regir::to_string(rc);
  EXPECT_NE(text.find("t_divloop"), std::string::npos);
  EXPECT_NE(text.find("div.i4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Inlining / CSE / LICM: the structural effects the §5 disassembly study
// would show for the pass mixes of DESIGN.md §5.

/// Caller looping `x = sq(x)` over a one-expression callee.
std::int32_t build_call_loop(Module& mod, std::int32_t* callee_out) {
  ILBuilder sq(mod, "t_sq", {{ValType::I32}, ValType::I32});
  sq.ldarg(0).ldarg(0).mul().ldc_i4(1).add().ret();
  const auto sq_m = sq.finish();
  if (callee_out != nullptr) *callee_out = sq_m;
  ILBuilder b(mod, "t_callloop", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto x = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(3).stloc(x);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(x).call(sq_m).stloc(x);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(x).ret();
  return b.finish();
}

TEST(RegIr, InliningRemovesCallSites) {
  VirtualMachine vm;
  const auto m = build_call_loop(vm.module(), nullptr);
  verify(vm.module(), m);
  const RCode on = regir::compile(vm.module(), vm.module().method(m),
                                  profiles::clr11().flags);  // inline_calls
  const RCode off = regir::compile(vm.module(), vm.module().method(m),
                                   profiles::sun14().flags);  // no inlining
  EXPECT_EQ(count_op(on, ROp::CALL_R), 0u);
  EXPECT_EQ(count_op(off, ROp::CALL_R), 1u);
  // The callee body is spliced in: the multiply now appears in the caller.
  EXPECT_GE(count_op(on, ROp::MUL_I4), 1u);
  // Every RCode owns its body; only the inlined one was actually expanded.
  ASSERT_NE(on.body, nullptr);
  ASSERT_NE(off.body, nullptr);
  EXPECT_GT(on.body->il_size(), vm.module().method(m).il_size());
  EXPECT_EQ(off.body->il_size(), vm.module().method(m).il_size());
}

TEST(RegIr, InliningRespectsSizeBudget) {
  VirtualMachine vm;
  // A callee bigger than inline_max_il must stay a call.
  ILBuilder big(vm.module(), "t_big", {{ValType::I32}, ValType::I32});
  big.ldarg(0);
  for (int i = 0; i < 40; ++i) big.ldc_i4(i).add();
  big.ret();
  const auto big_m = big.finish();
  ILBuilder b(vm.module(), "t_bigcall", {{ValType::I32}, ValType::I32});
  b.ldarg(0).call(big_m).ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags f = profiles::clr11().flags;
  f.inline_max_il = 24;
  const RCode rc = regir::compile(vm.module(), vm.module().method(m), f);
  EXPECT_EQ(count_op(rc, ROp::CALL_R), 1u);
  ASSERT_NE(rc.body, nullptr);
  EXPECT_EQ(rc.body->il_size(), vm.module().method(m).il_size());
}

TEST(RegIr, RecursiveInlineIsBoundedByDepth) {
  VirtualMachine vm;
  Module& mod = vm.module();
  const auto fib_id = static_cast<std::int32_t>(mod.method_count());
  ILBuilder b(mod, "t_fib", {{ValType::I32}, ValType::I32});
  auto rec = b.new_label();
  b.ldarg(0).ldc_i4(2).bge(rec);
  b.ldarg(0).ret();
  b.bind(rec);
  b.ldarg(0).ldc_i4(1).sub().call(fib_id);
  b.ldarg(0).ldc_i4(2).sub().call(fib_id);
  b.add().ret();
  const auto m = b.finish();
  ASSERT_EQ(m, fib_id);
  verify(mod, m);
  const EngineFlags f = profiles::clr11().flags;  // inline_depth = 2
  const RCode rc = regir::compile(mod, mod.method(m), f);
  // One level unrolled per round: calls remain (the recursion cannot
  // disappear), but the body grew past the original and stays bounded.
  EXPECT_GE(count_op(rc, ROp::CALL_R), 2u);
  EXPECT_LE(rc.code.size(),
            static_cast<std::size_t>(f.inline_total_il) * 4u);
}

TEST(RegIr, CseEliminatesDuplicateSubexpressions) {
  VirtualMachine vm;
  // x = (x*x + 3) ^ ((x*x + 3) >> 1): two mul/addi pairs fold to one.
  ILBuilder b(vm.module(), "t_cse", {{ValType::I32}, ValType::I32});
  const auto x = b.add_local(ValType::I32);
  b.ldarg(0).stloc(x);
  b.ldloc(x).ldloc(x).mul().ldc_i4(3).add();
  b.ldloc(x).ldloc(x).mul().ldc_i4(3).add().ldc_i4(1).shr();
  b.xor_().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags on = profiles::clr11().flags;
  EngineFlags off = on;
  off.cse = false;
  const RCode a = regir::compile(vm.module(), vm.module().method(m), on);
  const RCode c = regir::compile(vm.module(), vm.module().method(m), off);
  EXPECT_EQ(count_op(a, ROp::MUL_I4), 1u);
  EXPECT_EQ(count_op(c, ROp::MUL_I4), 2u);
  EXPECT_LT(count_op(a, ROp::ADDI_I4), count_op(c, ROp::ADDI_I4));
}

TEST(RegIr, CseDedupsRepeatedElementLoads) {
  VirtualMachine vm;
  // a[0] + a[0]: one checked load feeds both uses under CSE.
  ILBuilder b(vm.module(), "t_cseelem", {{ValType::I32}, ValType::I32});
  const auto arr = b.add_local(ValType::Ref);
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32);
  b.ldloc(arr).ldc_i4(0).ldelem(ValType::I32);
  b.add().ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags on = profiles::clr11().flags;
  on.bounds_check_elim = false;  // isolate CSE's CHK_BOUNDS dedup
  EngineFlags off = on;
  off.cse = false;
  const RCode a = regir::compile(vm.module(), vm.module().method(m), on);
  const RCode c = regir::compile(vm.module(), vm.module().method(m), off);
  EXPECT_LT(count_op(a, ROp::CHK_BOUNDS), count_op(c, ROp::CHK_BOUNDS));
  EXPECT_LT(count_op(a, ROp::LDELEM_I4) + count_op(a, ROp::LDELEMU_I4),
            count_op(c, ROp::LDELEM_I4) + count_op(c, ROp::LDELEMU_I4));
}

/// Position of the (single) MUL_I4 and of the earliest back-edge target in a
/// compiled listing: with LICM the multiply sits before the loop body.
std::pair<std::size_t, std::size_t> mul_and_loop_begin(const RCode& rc) {
  std::size_t mul_pos = 0, loop_begin = rc.code.size();
  for (std::size_t k = 0; k < rc.code.size(); ++k) {
    const RInstr& in = rc.code[k];
    if (in.op == ROp::MUL_I4) mul_pos = k;
    const bool branch = in.op == ROp::JMPB ||
                        (in.op >= ROp::JZ_I4 && in.op <= ROp::JGEI_I4);
    if (branch && in.d >= 0 && static_cast<std::size_t>(in.d) <= k) {
      loop_begin = std::min(loop_begin, static_cast<std::size_t>(in.d));
    }
  }
  return {mul_pos, loop_begin};
}

TEST(RegIr, LicmHoistsInvariantMultiplyAboveLoop) {
  VirtualMachine vm;
  // acc += a*a with loop-invariant argument a.
  ILBuilder b(vm.module(), "t_licm", {{ValType::I32, ValType::I32},
                                      ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(0).stloc(acc);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(acc).ldarg(1).ldarg(1).mul().add().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(acc).ret();
  const auto m = b.finish();
  verify(vm.module(), m);
  EngineFlags on = profiles::clr11().flags;
  EngineFlags off = on;
  off.licm = false;
  const RCode a = regir::compile(vm.module(), vm.module().method(m), on);
  const RCode c = regir::compile(vm.module(), vm.module().method(m), off);
  ASSERT_EQ(count_op(a, ROp::MUL_I4), 1u);
  ASSERT_EQ(count_op(c, ROp::MUL_I4), 1u);
  const auto [mul_on, loop_on] = mul_and_loop_begin(a);
  const auto [mul_off, loop_off] = mul_and_loop_begin(c);
  EXPECT_LT(mul_on, loop_on);      // hoisted into the preheader
  EXPECT_GE(mul_off, loop_off);    // still inside the loop without LICM
}

/// The loop above (acc += a*a, a = arg 1), in one of two shapes LICM must
/// leave alone: the body inside try/catch, so a handler begins inside the
/// loop region, or a second entry from outside (arg 2 != 0 jumps straight
/// to the guard, besides the rotated loop's own `br cond`).
std::int32_t build_guarded_mul_loop(Module& mod, bool handler) {
  ILBuilder b(mod, handler ? "t_licm_eh" : "t_licm_2entry",
              {{ValType::I32, ValType::I32, ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldc_i4(0).stloc(acc);
  b.ldc_i4(0).stloc(i);
  if (!handler) b.ldarg(2).brtrue(cond);
  b.br(cond);
  b.bind(top);
  b.ldloc(acc).ldarg(1).ldarg(1).mul().add().stloc(acc);
  if (handler) {
    auto t1 = b.new_label();
    auto h = b.new_label();
    auto next = b.new_label();
    b.leave(next);
    b.bind(t1);
    b.add_catch(top, t1, h, mod.exception_class());
    b.bind(h);
    b.pop().leave(next);
    b.bind(next);
  }
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldarg(0).blt(top);
  b.ldloc(acc).ret();
  return b.finish();
}

TEST(RegIr, LicmSkipsHandlerAndTwoEntryLoops) {
  for (const bool handler : {true, false}) {
    VMFixture f;
    const auto m = build_guarded_mul_loop(f.vm.module(), handler);
    verify(f.vm.module(), m);
    const RCode rc = regir::compile(f.vm.module(), f.vm.module().method(m),
                                    profiles::clr11().flags);
    ASSERT_EQ(count_op(rc, ROp::MUL_I4), 1u);
    const auto [mul_pos, loop_begin] = mul_and_loop_begin(rc);
    EXPECT_GE(mul_pos, loop_begin) << (handler ? "handler" : "two entries");
    for (std::int32_t skip = 0; skip < 2; ++skip) {
      EXPECT_EQ(f.run_all(m, {Slot::from_i32(5), Slot::from_i32(3),
                              Slot::from_i32(skip)}).i32, 45);
    }
  }
}

/// The loop-region analysis LICM, BCE and the VECLOOP lowerer share, on a
/// hand-built rotated loop: `0: ldi; 1: jmp ->3; 2: addi; 3: jlt ->2; 4: ret`
/// (branch targets are IL pcs, and IL pc k maps to code index k).
TEST(RegIr, LoopRegionEntryShapes) {
  auto instr = [](ROp op, std::int32_t d, std::int32_t a = -1,
                  std::int32_t b = -1) {
    RInstr in;
    in.op = op;
    in.d = d;
    in.a = a;
    in.b = b;
    return in;
  };
  std::vector<RInstr> code = {
      instr(ROp::LDI, 0), instr(ROp::JMP, 3), instr(ROp::ADDI_I4, 0, 0),
      instr(ROp::JLT_I4, 2, 0, 1), instr(ROp::RET_R, -1, 0)};
  std::vector<std::int32_t> il_start = {0, 1, 2, 3, 4, 5};
  const std::vector<bool> labels = {false, false, true, true, false, false};
  MethodDef md;
  RCode rc;
  rc.reg_types = {ValType::I32, ValType::I32};
  regir::IrView ir{code, il_start, labels, md, rc};

  const auto loops = ir.back_edges(regir::is_branch, true);
  ASSERT_EQ(loops.size(), 1u);
  const regir::BackEdge loop = loops[0];
  EXPECT_EQ(loop.body, 2);
  EXPECT_EQ(loop.branch, 3);
  regir::RegionEntry e = ir.entry(loop);
  EXPECT_EQ(e.shape, regir::LoopEntry::Rotated);
  EXPECT_EQ(e.jmp, 1);
  EXPECT_EQ(e.target, 3);
  EXPECT_EQ(ir.region_defs(loop)[0], 1);
  EXPECT_TRUE(ir.uses_reg(code[3], 1));
  EXPECT_EQ(ir.label_positions(),
            (std::vector<bool>{false, false, true, true, false}));

  // A handler beginning inside the region admits an entry by unwind.
  ExHandler h;
  h.handler = 2;
  md.handlers.push_back(h);
  EXPECT_EQ(ir.entry(loop).shape, regir::LoopEntry::None);
  md.handlers.clear();

  // A second (conditional) entry from outside.
  code[0] = instr(ROp::JZ_I4, 3, 0);
  EXPECT_EQ(ir.entry(loop).shape, regir::LoopEntry::None);

  // No jump in: the head is reached by falling into it.
  code[0] = instr(ROp::LDI, 0);
  code[1] = instr(ROp::NOP_R, -1);
  EXPECT_EQ(ir.entry(loop).shape, regir::LoopEntry::FallIn);

  // Insertion shifts every IL mapping at or after the insertion point.
  ir.insert_before(2, {instr(ROp::LDI, 1)});
  EXPECT_EQ(code.size(), 6u);
  EXPECT_EQ(il_start, (std::vector<std::int32_t>{0, 1, 3, 4, 5, 6}));
}

// ---------------------------------------------------------------------------
// Behavioural equivalence: every optimizing flag combination must compute
// exactly what the interpreter computes, over a program mixing arithmetic,
// arrays, calls and branches.

struct FlagCase {
  const char* name;
  EngineFlags flags;
};

std::vector<FlagCase> flag_matrix() {
  std::vector<FlagCase> cases;
  const EngineFlags base = profiles::clr11().flags;
  auto add = [&](const char* name, auto mutate) {
    EngineFlags f = base;
    mutate(f);
    cases.push_back({name, f});
  };
  add("all_on", [](EngineFlags&) {});
  add("no_copyprop", [](EngineFlags& f) { f.copy_propagation = false; });
  add("no_fusion", [](EngineFlags& f) { f.fuse_cmp_branch = false; });
  add("no_imm", [](EngineFlags& f) { f.imm_operands = false; });
  add("no_bce", [](EngineFlags& f) { f.bounds_check_elim = false; });
  add("divfuse", [](EngineFlags& f) {
    f.div_imm_fusion = true;
    f.redundant_const_store = false;
  });
  add("limit1", [](EngineFlags& f) { f.enregister_limit = 1; });
  add("limit0_slow_all", [](EngineFlags& f) {
    f.enregister_limit = 0;
    f.copy_propagation = false;
    f.fuse_cmp_branch = false;
    f.imm_operands = false;
    f.bounds_check_elim = false;
    f.fast_multidim = false;
    f.fast_math = false;
    f.inline_calls = false;
    f.cse = false;
    f.licm = false;
  });
  add("no_inline", [](EngineFlags& f) { f.inline_calls = false; });
  add("no_cse", [](EngineFlags& f) { f.cse = false; });
  add("no_licm", [](EngineFlags& f) { f.licm = false; });
  add("inline_deep", [](EngineFlags& f) {
    f.inline_calls = true;
    f.inline_depth = 4;
    f.inline_max_il = 64;
    f.inline_total_il = 512;
  });
  add("cse_licm_no_copyprop", [](EngineFlags& f) {
    f.copy_propagation = false;
    f.cse = true;
    f.licm = true;
  });
  add("vec", [](EngineFlags& f) { f.vectorize = true; });
  add("vec_no_cse", [](EngineFlags& f) {
    f.vectorize = true;
    f.cse = false;
    f.licm = false;
  });
  return cases;
}

class RegIrFlags : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegIrFlags, EveryFlagComboMatchesInterpreter) {
  const FlagCase fc = flag_matrix()[GetParam()];
  VMFixture f;
  Module& mod = f.vm.module();
  // mix(n): arrays, division by constants, shifts, compares, a call.
  ILBuilder helper(mod, "flags_helper", {{ValType::I32}, ValType::I32});
  helper.ldarg(0).ldc_i4(7).mul().ldc_i4(3).div().ret();
  const auto hm = helper.finish();

  ILBuilder b(mod, "flags_mix", {{ValType::I32}, ValType::I32});
  const auto i = b.add_local(ValType::I32);
  const auto acc = b.add_local(ValType::I32);
  const auto arr = b.add_local(ValType::Ref);
  auto cond = b.new_label();
  auto top = b.new_label();
  b.ldarg(0).newarr(ValType::I32).stloc(arr);
  b.ldc_i4(0).stloc(i).br(cond);
  b.bind(top);
  b.ldloc(arr).ldloc(i).ldloc(i).ldc_i4(5).mul().call(hm).stelem(ValType::I32);
  b.ldloc(acc).ldloc(arr).ldloc(i).ldelem(ValType::I32).add()
      .ldc_i4(3).shl().ldc_i4(2).shr().stloc(acc);
  b.ldloc(i).ldc_i4(1).add().stloc(i);
  b.bind(cond);
  b.ldloc(i).ldloc(arr).ldlen().blt(top);
  b.ldloc(acc).ret();
  const auto m = b.finish();
  verify(mod, m);

  // Reference result from the interpreter tier.
  const Slot want = f.run_on(2, m, {Slot::from_i32(50)});

  EngineProfile p;
  p.name = std::string("flags.") + fc.name;
  p.tier = Tier::Optimizing;
  p.flags = fc.flags;
  auto engine = make_engine(f.vm, p);
  VMContext& ctx = f.vm.main_context();
  Slot arg = Slot::from_i32(50);
  const Slot got = engine->invoke(ctx, m, std::span<const Slot>(&arg, 1));
  EXPECT_EQ(got.raw, want.raw) << fc.name;

  // Tiered row: same flags under hotness promotion. Every invocation must be
  // bit-identical to the single-tier answer no matter which tier the method
  // (or its callee) happens to run on — including the ones that straddle the
  // interp->baseline and baseline->opt transitions.
  EngineProfile tp = profiles::tiered(p);
  auto tiered_engine = make_engine(f.vm, tp);
  for (int round = 0; round < 80; ++round) {
    const Slot r = tiered_engine->invoke(ctx, m, std::span<const Slot>(&arg, 1));
    EXPECT_EQ(r.raw, want.raw) << fc.name << " tiered round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombos, RegIrFlags,
                         ::testing::Range<std::size_t>(0, 15));


// ---------------------------------------------------------------------------
// Opcode coverage: the optimizing tier's handlers that SciMark and the tests
// above never reach — the i8/r4/r8/ref arms of the fused branches and
// compares, the immediate and zero-test branches, shifts, conversions and
// i8/r4 arithmetic. Each row builds a small method, requires the clr11
// compile to contain the ROp under test on its straight-line path (so a
// passing row is known to have run that handler), then runs every input on
// clr11, mono023 and rotor10 and requires the same result bits — or the same
// exception class.

using BinOp = ILBuilder& (ILBuilder::*)();
using BranchOp = ILBuilder& (ILBuilder::*)(ILBuilder::Label);

struct CoverageRow {
  ROp op;  // must appear in the clr11 RCode
  std::vector<ValType> params;
  ValType ret;
  std::function<void(ILBuilder&)> body;
  std::vector<std::vector<Slot>> inputs;
};

/// One invocation's observable outcome: the result's bits at the return
/// type's width (an i32/f32 result owns only the low half of its slot), or
/// the class of the exception it threw.
std::string outcome(Engine& e, VMContext& ctx, std::int32_t m, ValType ret,
                    const std::vector<Slot>& args) {
  try {
    const Slot r = e.invoke(ctx, m, args);
    const bool narrow = ret == ValType::I32 || ret == ValType::F32;
    return "bits " + std::to_string(narrow ? r.raw & 0xffffffffu : r.raw);
  } catch (const ManagedException& ex) {
    return "throws " + ex.class_name();
  }
}

ValType result_of(BinOp op, ValType t) {
  const bool cmp = op == &ILBuilder::ceq || op == &ILBuilder::cgt ||
                   op == &ILBuilder::clt;
  return cmp ? ValType::I32 : t;
}

std::vector<CoverageRow> coverage_rows(ObjRef o1, ObjRef o2) {
  const auto i4 = [](std::int32_t v) { return Slot::from_i32(v); };
  const auto i8 = [](std::int64_t v) { return Slot::from_i64(v); };
  const auto r4 = [](float v) { return Slot::from_f32(v); };
  const auto r8 = [](double v) { return Slot::from_f64(v); };
  constexpr std::int32_t kI4Min = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kI4Max = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kI8Min = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kI8Max = std::numeric_limits<std::int64_t>::max();
  constexpr float kNaN4 = std::numeric_limits<float>::quiet_NaN();
  constexpr double kNaN8 = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::int64_t hi = std::int64_t{1} << 40;  // low 32 bits zero

  // Operand pairs per type: below, equal, above, and the values a
  // wrong-width or wrong-type handler gets wrong.
  std::map<ValType, std::vector<std::vector<Slot>>> pairs = {
      {ValType::I32,
       {{i4(3), i4(7)}, {i4(7), i4(7)}, {i4(7), i4(3)}, {i4(-1), i4(1)},
        {i4(kI4Min), i4(kI4Max)}, {i4(kI4Max), i4(-1)}}},
      {ValType::I64,
       {{i8(3), i8(7)}, {i8(7), i8(7)}, {i8(hi + 5), i8(5)},
        {i8(5), i8(2 * hi + 5)}, {i8(-hi), i8(hi)}, {i8(kI8Min), i8(-1)},
        {i8(kI8Max), i8(kI8Min)}, {i8(-7), i8(0)}}},
      {ValType::F32,
       {{r4(1.5f), r4(2.5f)}, {r4(2.5f), r4(2.5f)}, {r4(2.5f), r4(-1.5f)},
        {r4(0.0f), r4(-0.0f)}, {r4(kNaN4), r4(1.0f)}, {r4(1.0f), r4(kNaN4)},
        {r4(3.0e38f), r4(10.0f)}, {r4(7.0f), r4(0.0f)}}},
      {ValType::F64,
       {{r8(1.5), r8(2.5)}, {r8(2.5), r8(2.5)}, {r8(2.5), r8(-1.5)},
        {r8(0.0), r8(-0.0)}, {r8(kNaN8), r8(1.0)}, {r8(1.0), r8(kNaN8)},
        {r8(kInf), r8(1e308)}, {r8(7.0), r8(0.0)}}},
      {ValType::Ref,
       {{Slot::from_ref(nullptr), Slot::from_ref(nullptr)},
        {Slot::from_ref(o1), Slot::from_ref(nullptr)},
        {Slot::from_ref(nullptr), Slot::from_ref(o2)},
        {Slot::from_ref(o1), Slot::from_ref(o1)},
        {Slot::from_ref(o1), Slot::from_ref(o2)}}},
  };
  // Single operands per type, for the unary ops and conversions.
  std::map<ValType, std::vector<std::vector<Slot>>> singles = {
      {ValType::I32,
       {{i4(0)}, {i4(-1)}, {i4(127)}, {i4(128)}, {i4(255)}, {i4(256)},
        {i4(32767)}, {i4(32768)}, {i4(65535)}, {i4(-129)}, {i4(kI4Min)},
        {i4(kI4Max)}, {i4(16777217)}}},
      {ValType::I64,
       {{i8(0)}, {i8(-5)}, {i8(hi)}, {i8(hi + 0x80)}, {i8(kI8Min)},
        {i8(kI8Max)}, {i8((std::int64_t{1} << 53) + 1)},
        {i8((std::int64_t{1} << 24) + 1)}, {i8(0xffffffffLL)}}},
      {ValType::F32,
       {{r4(0.5f)}, {r4(-2.75f)}, {r4(-0.0f)}, {r4(3.0e9f)}, {r4(-3.0e9f)},
        {r4(1.0e20f)}, {r4(kNaN4)}, {r4(std::numeric_limits<float>::infinity())},
        {r4(-129.5f)}}},
      {ValType::F64,
       {{r8(0.5)}, {r8(-2.75)}, {r8(-0.0)}, {r8(3.0e9)}, {r8(-3.0e9)},
        {r8(1.0e20)}, {r8(1.0e300)}, {r8(kNaN8)}, {r8(-kInf)},
        {r8(16777217.0)}, {r8(-129.5)}}},
  };
  const std::vector<std::vector<Slot>> ref_truth = {
      {Slot::from_ref(nullptr)}, {Slot::from_ref(o1)}};
  const std::vector<std::vector<Slot>> i8_truth = {
      {i8(0)}, {i8(1)}, {i8(hi)}, {i8(-1)}};

  std::vector<CoverageRow> rows;
  const auto binary = [&](ROp op, ValType t, BinOp emit) {
    rows.push_back({op, {t, t}, result_of(emit, t),
                    [emit](ILBuilder& b) { (b.ldarg(0).ldarg(1).*emit)().ret(); },
                    pairs[t]});
  };
  const auto unary = [&](ROp op, ValType t, ValType ret, BinOp emit) {
    rows.push_back({op, {t}, ret,
                    [emit](ILBuilder& b) { (b.ldarg(0).*emit)().ret(); },
                    singles[t]});
  };
  // Returns 1 when the branch is taken, 0 when it falls through.
  const auto branch_body = [](BranchOp br, std::function<void(ILBuilder&)> load) {
    return [br, load](ILBuilder& b) {
      const ILBuilder::Label taken = b.new_label();
      load(b);
      (b.*br)(taken);
      b.ldc_i4(0).ret();
      b.bind(taken);
      b.ldc_i4(1).ret();
    };
  };
  const auto two_args = [](ILBuilder& b) { b.ldarg(0).ldarg(1); };

  // Fused compare-and-branch, every type.
  const std::vector<std::pair<BranchOp, std::array<ROp, 4>>> fused = {
      {&ILBuilder::beq, {ROp::JEQ_I4, ROp::JEQ_I8, ROp::JEQ_R4, ROp::JEQ_R8}},
      {&ILBuilder::bne, {ROp::JNE_I4, ROp::JNE_I8, ROp::JNE_R4, ROp::JNE_R8}},
      {&ILBuilder::blt, {ROp::JLT_I4, ROp::JLT_I8, ROp::JLT_R4, ROp::JLT_R8}},
      {&ILBuilder::ble, {ROp::JLE_I4, ROp::JLE_I8, ROp::JLE_R4, ROp::JLE_R8}},
      {&ILBuilder::bgt, {ROp::JGT_I4, ROp::JGT_I8, ROp::JGT_R4, ROp::JGT_R8}},
      {&ILBuilder::bge, {ROp::JGE_I4, ROp::JGE_I8, ROp::JGE_R4, ROp::JGE_R8}},
  };
  const std::array<ValType, 4> num = {ValType::I32, ValType::I64,
                                      ValType::F32, ValType::F64};
  for (const auto& [br, ops] : fused) {
    for (std::size_t k = 0; k < num.size(); ++k) {
      rows.push_back({ops[k], {num[k], num[k]}, ValType::I32,
                      branch_body(br, two_args), pairs[num[k]]});
    }
  }
  rows.push_back({ROp::JEQ_REF, {ValType::Ref, ValType::Ref}, ValType::I32,
                  branch_body(&ILBuilder::beq, two_args), pairs[ValType::Ref]});
  rows.push_back({ROp::JNE_REF, {ValType::Ref, ValType::Ref}, ValType::I32,
                  branch_body(&ILBuilder::bne, two_args), pairs[ValType::Ref]});

  // Zero tests on i8 and ref.
  const auto one_arg = [](ILBuilder& b) { b.ldarg(0); };
  rows.push_back({ROp::JZ_I8, {ValType::I64}, ValType::I32,
                  branch_body(&ILBuilder::brfalse, one_arg), i8_truth});
  rows.push_back({ROp::JNZ_I8, {ValType::I64}, ValType::I32,
                  branch_body(&ILBuilder::brtrue, one_arg), i8_truth});
  rows.push_back({ROp::JZ_REF, {ValType::Ref}, ValType::I32,
                  branch_body(&ILBuilder::brfalse, one_arg), ref_truth});
  rows.push_back({ROp::JNZ_REF, {ValType::Ref}, ValType::I32,
                  branch_body(&ILBuilder::brtrue, one_arg), ref_truth});

  // Immediate compare-and-branch on i32.
  const std::vector<std::pair<BranchOp, ROp>> imm_branches = {
      {&ILBuilder::beq, ROp::JEQI_I4}, {&ILBuilder::bne, ROp::JNEI_I4},
      {&ILBuilder::blt, ROp::JLTI_I4}, {&ILBuilder::ble, ROp::JLEI_I4},
      {&ILBuilder::bgt, ROp::JGTI_I4}, {&ILBuilder::bge, ROp::JGEI_I4},
  };
  for (const auto& [br, op] : imm_branches) {
    rows.push_back({op, {ValType::I32}, ValType::I32,
                    branch_body(br, [](ILBuilder& b) { b.ldarg(0).ldc_i4(-7); }),
                    {{i4(-8)}, {i4(-7)}, {i4(-6)}, {i4(kI4Min)}, {i4(kI4Max)}}});
  }

  // Compares materialized as 0/1.
  const std::vector<std::pair<BinOp, std::array<ROp, 4>>> compares = {
      {&ILBuilder::ceq, {ROp::CEQ_I4, ROp::CEQ_I8, ROp::CEQ_R4, ROp::CEQ_R8}},
      {&ILBuilder::cgt, {ROp::CGT_I4, ROp::CGT_I8, ROp::CGT_R4, ROp::CGT_R8}},
      {&ILBuilder::clt, {ROp::CLT_I4, ROp::CLT_I8, ROp::CLT_R4, ROp::CLT_R8}},
  };
  for (const auto& [emit, ops] : compares) {
    for (std::size_t k = 0; k < num.size(); ++k) binary(ops[k], num[k], emit);
  }
  binary(ROp::CEQ_REF, ValType::Ref, &ILBuilder::ceq);

  // i8 and r4 arithmetic (the i8 divisions include the faulting inputs).
  binary(ROp::ADD_I8, ValType::I64, &ILBuilder::add);
  binary(ROp::SUB_I8, ValType::I64, &ILBuilder::sub);
  binary(ROp::MUL_I8, ValType::I64, &ILBuilder::mul);
  binary(ROp::DIV_I8, ValType::I64, &ILBuilder::div);
  binary(ROp::REM_I8, ValType::I64, &ILBuilder::rem);
  binary(ROp::AND_I8, ValType::I64, &ILBuilder::and_);
  binary(ROp::OR_I8, ValType::I64, &ILBuilder::or_);
  binary(ROp::XOR_I8, ValType::I64, &ILBuilder::xor_);
  unary(ROp::NEG_I8, ValType::I64, ValType::I64, &ILBuilder::neg);
  unary(ROp::NOT_I8, ValType::I64, ValType::I64, &ILBuilder::not_);
  binary(ROp::ADD_R4, ValType::F32, &ILBuilder::add);
  binary(ROp::SUB_R4, ValType::F32, &ILBuilder::sub);
  binary(ROp::MUL_R4, ValType::F32, &ILBuilder::mul);
  binary(ROp::DIV_R4, ValType::F32, &ILBuilder::div);
  binary(ROp::REM_R4, ValType::F32, &ILBuilder::rem);
  unary(ROp::NEG_R4, ValType::F32, ValType::F32, &ILBuilder::neg);
  const std::vector<std::pair<ROp, BinOp>> i8_imm = {
      {ROp::ADDI_I8, &ILBuilder::add},
      {ROp::SUBI_I8, &ILBuilder::sub},
      {ROp::MULI_I8, &ILBuilder::mul},
  };
  for (const auto& [op, emit] : i8_imm) {
    rows.push_back({op, {ValType::I64}, ValType::I64,
                    [emit](ILBuilder& b) {
                      (b.ldarg(0).ldc_i8(hi + 3).*emit)().ret();
                    },
                    singles[ValType::I64]});
  }

  // Shifts: register count (i4 and i8 values, i32 count) and constant count.
  const std::vector<std::vector<Slot>> counts = {
      {i4(0)}, {i4(1)}, {i4(31)}, {i4(33)}, {i4(63)}, {i4(64)}, {i4(-1)}};
  const std::vector<std::tuple<BinOp, ROp, ROp>> shifts = {
      {&ILBuilder::shl, ROp::SHL_I4, ROp::SHL_I8},
      {&ILBuilder::shr, ROp::SHR_I4, ROp::SHR_I8},
      {&ILBuilder::shr_un, ROp::SHRU_I4, ROp::SHRU_I8},
  };
  for (const auto& [emit, op4, op8] : shifts) {
    for (const auto& [op, t, value] :
         {std::tuple{op4, ValType::I32, i4(-123457)},
          std::tuple{op8, ValType::I64, i8(-hi - 123457)}}) {
      std::vector<std::vector<Slot>> in;
      for (const auto& c : counts) in.push_back({value, c[0]});
      rows.push_back({op, {t, ValType::I32}, t,
                      [emit](ILBuilder& b) { (b.ldarg(0).ldarg(1).*emit)().ret(); },
                      in});
    }
  }
  const std::vector<std::tuple<BinOp, ROp, ValType>> imm_shifts = {
      {&ILBuilder::shl, ROp::SHLI_I4, ValType::I32},
      {&ILBuilder::shr, ROp::SHRI_I4, ValType::I32},
      {&ILBuilder::shl, ROp::SHLI_I8, ValType::I64},
      {&ILBuilder::shr, ROp::SHRI_I8, ValType::I64},
  };
  for (const auto& [emit, op, t] : imm_shifts) {
    for (const std::int32_t n : {3, 35}) {
      rows.push_back({op, {t}, t,
                      [emit, n](ILBuilder& b) { (b.ldarg(0).ldc_i4(n).*emit)().ret(); },
                      singles[t]});
    }
  }

  // Conversions between every pair of numeric types, and the narrowing
  // sign/zero extensions.
  const std::array<BinOp, 4> to = {&ILBuilder::conv_i4, &ILBuilder::conv_i8,
                                   &ILBuilder::conv_r4, &ILBuilder::conv_r8};
  const ROp cv[4][4] = {
      {ROp::NOP_R, ROp::CV_I4_I8, ROp::CV_I4_R4, ROp::CV_I4_R8},
      {ROp::CV_I8_I4, ROp::NOP_R, ROp::CV_I8_R4, ROp::CV_I8_R8},
      {ROp::CV_R4_I4, ROp::CV_R4_I8, ROp::NOP_R, ROp::CV_R4_R8},
      {ROp::CV_R8_I4, ROp::CV_R8_I8, ROp::CV_R8_R4, ROp::NOP_R},
  };
  for (std::size_t s = 0; s < num.size(); ++s) {
    for (std::size_t d = 0; d < num.size(); ++d) {
      if (s != d) unary(cv[s][d], num[s], num[d], to[d]);
    }
  }
  unary(ROp::SEXT8, ValType::I32, ValType::I32, &ILBuilder::conv_i1);
  unary(ROp::ZEXT8, ValType::I32, ValType::I32, &ILBuilder::conv_u1);
  unary(ROp::SEXT16, ValType::I32, ValType::I32, &ILBuilder::conv_i2);
  unary(ROp::ZEXT16, ValType::I32, ValType::I32, &ILBuilder::conv_u2);
  return rows;
}

TEST(RegIr, OpcodeCoverageAgreesAcrossTiers) {
  VMFixture f;
  Module& mod = f.vm.module();
  VMContext& ctx = f.vm.main_context();
  // Two distinct live objects for the ref rows; nothing below allocates, so
  // no collection runs while the test holds them.
  ObjRef o1 = f.vm.heap().alloc_array(ValType::I32, 1);
  ObjRef o2 = f.vm.heap().alloc_array(ValType::I32, 1);
  ASSERT_NE(o1, nullptr);
  ASSERT_NE(o2, nullptr);

  const std::vector<CoverageRow> rows = coverage_rows(o1, o2);
  std::size_t runs = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CoverageRow& row = rows[i];
    RInstr probe;
    probe.op = row.op;
    const std::string what = regir::to_string(probe);
    ILBuilder b(mod, "cov" + std::to_string(i), {row.params, row.ret});
    row.body(b);
    const auto m = b.finish();
    verify(mod, m);
    const RCode rc = regir::compile(mod, mod.method(m), profiles::clr11().flags);
    ASSERT_GE(count_op(rc, row.op), 1u)
        << "row " << i << " (" << what << ") compiled to:\n"
        << regir::to_string(rc);
    for (const std::vector<Slot>& args : row.inputs) {
      std::string first;
      for (auto& e : f.engines) {
        ctx.engine = e.get();
        const std::string got = outcome(*e, ctx, m, row.ret, args);
        if (e == f.engines.front()) {
          first = got;
        } else {
          EXPECT_EQ(first, got) << what << " on " << e->name() << ", input "
                                << (&args - row.inputs.data());
        }
      }
      ++runs;
    }
  }
  // The table cannot silently shrink, and rows run several inputs each.
  EXPECT_GT(rows.size(), 90u);
  EXPECT_GT(runs, 3 * rows.size());
}

}  // namespace
}  // namespace hpcnet::test

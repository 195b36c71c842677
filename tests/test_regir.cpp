// Register-IR compiler: the optimization passes and profile quirks behind
// the paper's §5 findings, checked structurally (what code is emitted) and
// behaviourally (every flag combination computes the interpreter's answer).
#include <gtest/gtest.h>

#include <algorithm>

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

}  // namespace
}  // namespace hpcnet::test

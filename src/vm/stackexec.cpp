// The stack-IL executor: one dispatch loop over the verified CIL subset,
// instantiated twice. The paper's Rotor and Mono results come from *how*
// each engine executes the same IL, not from different opcode semantics, so
// the two IL tiers share every arm below and differ only in a slot policy
// that is resolved at compile time:
//
//   Tagged (Tier::Interp, rotor10) — the SSCLI/Rotor stand-in. Portable by
//     construction: every stack slot carries a dynamic type tag, operand
//     types come from those tags (a mismatch raises InvalidCast), pushes and
//     pops go through the out-of-line portability layer, every instruction
//     polls the safepoint flag and re-validates pc/sp, and array accesses
//     re-check the array's kind and element type. The "generic portability
//     layer, no optimization" design the paper measures at 5-10x below the
//     optimizing engines.
//
//   Typed (Tier::Baseline, mono023) — the Mono 0.23 stand-in. Operand types
//     come from the verifier's annotations (`in.type`), so there is no tag
//     dispatch, but the IL is still translated literally: every value
//     round-trips through the memory-resident operand stack and locals, the
//     code shape of the paper's Mono disassembly (Table 7: "uses two memory
//     locations for each of the variables, loads those and stores the result
//     again"). Safepoints are polled at back edges and calls only; GC roots
//     come from the verifier's per-pc stack map plus the static slot types,
//     with frame.pc kept current at every GC point.
//
// Both follow the frame protocol in frame_protocol.hpp (entry budget check,
// pulse window shared with OSR, residual charge at exit).
#include <algorithm>
#include <type_traits>
#include <vector>

#include "vm/arith.hpp"
#include "vm/engines.hpp"
#include "vm/execution.hpp"
#include "vm/frame_protocol.hpp"
#include "vm/heap.hpp"
#include "vm/intrinsics.hpp"
#include "vm/telemetry/telemetry.hpp"
#include "vm/unwind.hpp"

namespace hpcnet::vm {

namespace {

struct Tagged {
  using SlotT = TaggedSlot;
  static constexpr bool kTagged = true;
  static constexpr Tier kTier = Tier::Interp;
};

struct Typed {
  using SlotT = Slot;
  static constexpr bool kTagged = false;
  static constexpr Tier kTier = Tier::Baseline;
};

inline Slot& val(TaggedSlot& s) { return s.v; }
inline Slot& val(Slot& s) { return s; }

template <class P>
struct StackFrame {
  GcFrame gc;  // must be first (enumerate casts back)
  const MethodDef* m = nullptr;
  typename P::SlotT* slots = nullptr;  // args + locals
  typename P::SlotT* stack = nullptr;
  std::int32_t sp = 0;
  std::int32_t pc = 0;  // Typed: the stack map to read; current at GC points

  static void enumerate(const GcFrame* g, void (*visit)(ObjRef, void*),
                        void* arg) {
    const auto* f = reinterpret_cast<const StackFrame*>(g);
    const MethodDef& m = *f->m;
    if constexpr (P::kTagged) {
      // The tags are the root map.
      for (std::size_t i = 0; i < m.frame_slots(); ++i) {
        if (f->slots[i].tag == ValType::Ref && f->slots[i].v.ref != nullptr) {
          visit(f->slots[i].v.ref, arg);
        }
      }
      for (std::int32_t i = 0; i < f->sp; ++i) {
        if (f->stack[i].tag == ValType::Ref && f->stack[i].v.ref != nullptr) {
          visit(f->stack[i].v.ref, arg);
        }
      }
    } else {
      for (std::size_t i = 0; i < m.frame_slots(); ++i) {
        if (m.slot_type(i) == ValType::Ref && f->slots[i].ref != nullptr) {
          visit(f->slots[i].ref, arg);
        }
      }
      // The operand stack's ref layout at the recorded pc. Values consumed
      // by the current instruction are not popped until it retires, so sp
      // never exceeds stack_in[pc] at a GC point by a ref.
      const auto& types = m.stack_in[static_cast<std::size_t>(f->pc)];
      const std::int32_t n =
          std::min(f->sp, static_cast<std::int32_t>(types.size()));
      for (std::int32_t i = 0; i < n; ++i) {
        if (types[static_cast<std::size_t>(i)] == ValType::Ref &&
            f->stack[i].ref != nullptr) {
          visit(f->stack[i].ref, arg);
        }
      }
    }
  }
};

// SSCLI funnels primitive operations through its portability layer rather
// than open-coding them; these out-of-line helpers model that call-per-
// operation design (and are the main reason the Tagged tier lands 4-10x
// behind the optimizing engines, as Rotor did).
[[gnu::noinline]] void push_portable(StackFrame<Tagged>& f, ValType t,
                                     Slot v) {
  f.stack[f.sp].tag = t;
  f.stack[f.sp].v = v;
  ++f.sp;
}

[[gnu::noinline]] TaggedSlot pop_portable(StackFrame<Tagged>& f) {
  return f.stack[--f.sp];
}

/// Two-operand arithmetic and bitwise opcodes on operand type `t` (a tag or
/// the verifier's annotation), writing `r`, which may alias `a`; anything
/// but Ok is a failed integer division and leaves `r` alone. `O` is a
/// compile-time constant, so no arm dispatches on the opcode twice. Each
/// case stores its own result: merging the typed results into one Slot
/// first moved every float result through an integer register.
template <Op O>
arith::DivStatus binop(ValType t, const Slot& a, const Slot& b, Slot& r) {
  if constexpr (O == Op::AND || O == Op::OR || O == Op::XOR) {
    auto f = [](auto x, auto y) {
      if constexpr (O == Op::AND) return x & y;
      else if constexpr (O == Op::OR) return x | y;
      else return x ^ y;
    };
    if (t == ValType::I32) {
      r = Slot::from_i32(f(a.i32, b.i32));
    } else {
      r = Slot::from_i64(f(a.i64, b.i64));
    }
  } else if constexpr (O == Op::SHL || O == Op::SHR || O == Op::SHR_UN) {
    if (t == ValType::I32) {
      r = Slot::from_i32(O == Op::SHL   ? arith::shl_i32(a.i32, b.i32)
                         : O == Op::SHR ? arith::shr_i32(a.i32, b.i32)
                                        : arith::shru_i32(a.i32, b.i32));
    } else {
      r = Slot::from_i64(O == Op::SHL   ? arith::shl_i64(a.i64, b.i32)
                         : O == Op::SHR ? arith::shr_i64(a.i64, b.i32)
                                        : arith::shru_i64(a.i64, b.i32));
    }
  } else if constexpr (O == Op::DIV || O == Op::REM) {
    // CLI rem never overflows (MinValue % -1 == 0, see arith.hpp).
    switch (t) {
      case ValType::I32: {
        std::int32_t out;
        const auto s = O == Op::DIV ? arith::div_i32(a.i32, b.i32, &out)
                                    : arith::rem_i32(a.i32, b.i32, &out);
        if (s != arith::DivStatus::Ok) return s;
        r = Slot::from_i32(out);
        break;
      }
      case ValType::I64: {
        std::int64_t out;
        const auto s = O == Op::DIV ? arith::div_i64(a.i64, b.i64, &out)
                                    : arith::rem_i64(a.i64, b.i64, &out);
        if (s != arith::DivStatus::Ok) return s;
        r = Slot::from_i64(out);
        break;
      }
      case ValType::F32:
        r = Slot::from_f32(O == Op::DIV ? a.f32 / b.f32
                                        : std::fmod(a.f32, b.f32));
        break;
      default:
        r = Slot::from_f64(O == Op::DIV ? a.f64 / b.f64
                                        : std::fmod(a.f64, b.f64));
        break;
    }
  } else {
    static_assert(O == Op::ADD || O == Op::SUB || O == Op::MUL);
    switch (t) {
      case ValType::I32:
        r = Slot::from_i32(O == Op::ADD   ? arith::add_i32(a.i32, b.i32)
                           : O == Op::SUB ? arith::sub_i32(a.i32, b.i32)
                                          : arith::mul_i32(a.i32, b.i32));
        break;
      case ValType::I64:
        r = Slot::from_i64(O == Op::ADD   ? arith::add_i64(a.i64, b.i64)
                           : O == Op::SUB ? arith::sub_i64(a.i64, b.i64)
                                          : arith::mul_i64(a.i64, b.i64));
        break;
      case ValType::F32:
        r = Slot::from_f32(O == Op::ADD   ? a.f32 + b.f32
                           : O == Op::SUB ? a.f32 - b.f32
                                          : a.f32 * b.f32);
        break;
      default:
        r = Slot::from_f64(O == Op::ADD   ? a.f64 + b.f64
                           : O == Op::SUB ? a.f64 - b.f64
                                          : a.f64 * b.f64);
        break;
    }
  }
  return arith::DivStatus::Ok;
}

template <Op O>
constexpr std::integral_constant<Op, O> kOp{};

template <class P>
class StackExecutor final : public TierBackend {
 public:
  StackExecutor(VirtualMachine& vm, TieredEngine& engine)
      : vm_(vm), engine_(engine), tiered_(engine.tiered()) {}

  Slot execute(VMContext& ctx, const MethodDef& m,
               const Slot* args) override {
    return exec(ctx, m, args);
  }

 private:
  using SlotT = typename P::SlotT;
  using Frame = StackFrame<P>;
  static constexpr bool kTagged = P::kTagged;

  Slot exec(VMContext& ctx, const MethodDef& m, const Slot* args);

  VirtualMachine& vm_;
  TieredEngine& engine_;
  const bool tiered_;
};

/// The operands of a one- or two-operand instruction and their type.
struct Operands {
  Slot a, b;
  ValType t;
  bool same;  // operand tags agree (always true under Typed)
};

#define EXEC_THROW(cls, msg)                \
  do {                                      \
    gc_point(pc);                           \
    vm_.throw_exception(ctx, (cls), (msg)); \
    goto dispatch_exception;                \
  } while (0)

template <class P>
Slot StackExecutor<P>::exec(VMContext& ctx, const MethodDef& m,
                            const Slot* args) {
  Module& mod = vm_.module();
  engine_.ensure_verified(m);
  if (!budget_ok(vm_, ctx)) return Slot{};
  telemetry::InvocationScope tel(m.id, static_cast<std::uint8_t>(P::kTier));
  const auto arena_mark = ctx.arena.mark();

  Frame frame;
  frame.m = &m;
  const std::size_t nslots = m.frame_slots();
  frame.slots = static_cast<SlotT*>(ctx.arena.alloc(nslots * sizeof(SlotT)));
  frame.stack = static_cast<SlotT*>(ctx.arena.alloc(
      static_cast<std::size_t>(m.max_stack + 1) * sizeof(SlotT)));
  for (std::size_t i = 0; i < m.num_args(); ++i) val(frame.slots[i]) = args[i];
  if constexpr (kTagged) {
    for (std::size_t i = 0; i < nslots; ++i) frame.slots[i].tag = m.slot_type(i);
  }
  frame.gc.parent = ctx.top_frame;
  frame.gc.enumerate = &Frame::enumerate;
  ctx.top_frame = &frame.gc;

  UnwindMachine uw;
  SlotT* st = frame.stack;
  SlotT* loc = frame.slots;
  std::int32_t pc = 0;
  Slot result;
  // Why the last arith arm failed: a division status, or Ok for Tagged's
  // operand tag mismatch.
  arith::DivStatus div = arith::DivStatus::Ok;
  // Bytecode counter kept in a register-friendly local; flushed to the
  // telemetry scope only at frame exit so the dispatch loop pays nothing.
  std::uint64_t bc = 0;
  // Taken back edges: fuel pulses and OSR attempts ride one counter, and
  // the total is flushed to the tiering policy at frame exit.
  const std::uint32_t osr_step = tiered_ ? engine_.osr_step() : 0;
  PulseWindow win(ctx.fuel, osr_step);

  // Frame teardown is RAII so it runs on EVERY exit: normal returns,
  // managed exceptions propagating out, and native C++ exceptions (frame
  // arena exhaustion, a compile failure inside a nested call) unwinding
  // through the dispatch loop; otherwise ctx.top_frame would be left
  // pointing at this dead frame and the back-edge credit dropped. Declared
  // after `tel` so the bytecode count lands before tel's flush.
  struct FrameExit {
    StackExecutor* self;
    VMContext& ctx;
    Frame& frame;
    telemetry::InvocationScope& tel;
    const MethodDef& m;
    FrameArena::Mark arena_mark;
    const std::uint64_t& bc;
    PulseWindow& win;
    ~FrameExit() {
      tel.bytecodes = bc;
      ctx.top_frame = frame.gc.parent;
      ctx.arena.release(arena_mark);
      win.charge_residual(ctx.fuel);
      if (self->tiered_ && win.backedges != 0) {
        try {
          self->engine_.note_backedges(m.id, win.backedges);
        } catch (...) {
          // A failed promotion (code-cache exhaustion) must not terminate
          // the process when this flush runs during another unwind; the
          // credit is simply dropped.
        }
      }
    }
  } frame_exit{this, ctx, frame, tel, m, arena_mark, bc, win};

  // On-stack replacement: once THIS frame's taken back edges cross the
  // trigger, compile a continuation at the loop header and finish the
  // invocation in compiled code (DESIGN.md §10). Live frame state becomes
  // the continuation's arguments: slots, then the operand stack bottom-up.
  bool osr_armed = osr_step != 0;
  Slot osr_result;
  auto try_osr = [&](std::int32_t header) -> bool {
    if (!osr_armed || !uw.idle()) return false;
    const auto& entry_stack = m.stack_in[static_cast<std::size_t>(header)];
    if (static_cast<std::size_t>(frame.sp) != entry_stack.size()) {
      return false;
    }
    const regir::RCode* rc = engine_.osr_code(m, header);
    if (rc == nullptr) {
      // Unbuildable continuation: stop trying in this frame.
      osr_armed = false;
      win.park_unless_fuel();
      return false;
    }
    std::vector<Slot> a(nslots + entry_stack.size());
    for (std::size_t i = 0; i < nslots; ++i) a[i] = val(loc[i]);
    for (std::int32_t k = 0; k < frame.sp; ++k) {
      a[nslots + static_cast<std::size_t>(k)] = val(st[k]);
    }
    osr_result = engine_.osr_enter(ctx, *rc, header, a.data());
    return true;
  };

  // A taken backward branch to `header`: the frame's safepoint, and a tick
  // of the pulse window (fuel, deadline, then OSR). Inlined into each branch
  // arm: a tail shared by the three arms through one label measured slower
  // on the interpreter tier's SciMark.
  enum class Edge { Taken, Fault, Replaced };
  auto back_edge = [&](std::int32_t header) -> Edge {
    if constexpr (!kTagged) {
      frame.pc = header;
      vm_.safepoint_poll(ctx);
    }
    if (win.tick()) {
      if (!win.pulse(vm_, ctx)) return Edge::Fault;
      if (try_osr(header)) return Edge::Replaced;
    }
    return Edge::Taken;
  };

  // Typed frames record the pc whose stack map the collector must read at
  // every point that can allocate, call or park; Tagged frames need none.
  auto gc_point = [&](std::int32_t at) {
    if constexpr (!kTagged) frame.pc = at;
  };

  // Operand-stack access. Tagged pushes and pops through the portability
  // layer and types operands by their tags; Typed reads operands in place,
  // writes the result over the stack top and types them by `in.type`.
  auto push = [&](ValType t, Slot v) {
    if constexpr (kTagged) {
      push_portable(frame, t, v);
    } else {
      st[frame.sp++] = v;
    }
  };
  auto load = [&](std::size_t slot) {
    if constexpr (kTagged) {
      push(loc[slot].tag, loc[slot].v);
    } else {
      st[frame.sp++] = loc[slot];
    }
  };
  auto pop = [&]() -> SlotT {
    if constexpr (kTagged) {
      return pop_portable(frame);
    } else {
      return st[--frame.sp];
    }
  };
  // One operand; under Typed it stays on the stack as the result's slot.
  auto unary = [&](ValType type) -> Operands {
    if constexpr (kTagged) {
      const TaggedSlot a = st[--frame.sp];
      return {a.v, Slot{}, a.tag, true};
    } else {
      return {st[frame.sp - 1], Slot{}, type, true};
    }
  };
  // Two operands; under Typed the first stays as the result's slot.
  auto binary = [&](ValType type) -> Operands {
    if constexpr (kTagged) {
      const TaggedSlot b = pop_portable(frame);
      const TaggedSlot a = pop_portable(frame);
      return {a.v, b.v, a.tag, a.tag == b.tag};
    } else {
      const Slot b = st[--frame.sp];
      return {st[frame.sp - 1], b, type, true};
    }
  };
  // The result of unary()/binary().
  auto put = [&](ValType t, Slot v) {
    if constexpr (kTagged) {
      push_portable(frame, t, v);
    } else {
      st[frame.sp - 1] = v;
    }
  };
  // Releases the result slot of an instruction that produces none.
  auto drop = [&] {
    if constexpr (!kTagged) --frame.sp;
  };
  // Replaces the stack top in place under both policies.
  auto set_top = [&](ValType t, Slot v) {
    if constexpr (kTagged) {
      st[frame.sp - 1] = {v, t};
    } else {
      st[frame.sp - 1] = v;
    }
  };
  // Two-operand arithmetic: Tagged pops both operands through the
  // portability layer and pushes the result back; Typed overwrites the
  // first operand in place.
  auto arith = [&](ValType type, auto op) -> bool {
    constexpr Op O = decltype(op)::value;
    if constexpr (kTagged) {
      const TaggedSlot b = pop_portable(frame);
      const TaggedSlot a = pop_portable(frame);
      // Shift counts are always i32, whatever the shifted value's type.
      if (O != Op::SHL && O != Op::SHR && O != Op::SHR_UN && a.tag != b.tag) {
        div = arith::DivStatus::Ok;
        return false;
      }
      Slot r;
      div = binop<O>(a.tag, a.v, b.v, r);
      if (div == arith::DivStatus::Ok) push_portable(frame, a.tag, r);
    } else {
      const Slot b = st[--frame.sp];
      Slot& a = st[frame.sp - 1];
      div = binop<O>(type, a, b, a);
    }
    return div == arith::DivStatus::Ok;
  };
  // Call arguments: the top `argc` slots (Tagged copies out their values).
  auto call_args = [&](std::size_t argc, Slot* argbuf) -> const Slot* {
    if constexpr (kTagged) {
      for (std::size_t i = 0; i < argc; ++i) {
        argbuf[i] = st[frame.sp - static_cast<std::int32_t>(argc - i)].v;
      }
      return argbuf;
    } else {
      return st + frame.sp - static_cast<std::int32_t>(argc);
    }
  };

  for (;;) {
    if constexpr (kTagged) {
      vm_.safepoint_poll(ctx);  // per-instruction: the portable engine's tax
      // Defensive dispatch checks (pc range, operand stack bounds): the
      // portability layer re-validates state on every instruction instead
      // of trusting the verifier, exactly the SSCLI trade-off the paper
      // measures.
      if (static_cast<std::uint32_t>(pc) >= m.code.size() ||
          static_cast<std::uint32_t>(frame.sp) >
              static_cast<std::uint32_t>(m.max_stack)) {
        EXEC_THROW(mod.exception_class(), "interpreter state corrupt");
      }
    }
    {
    ++bc;
    const Instr& in = m.code[static_cast<std::size_t>(pc)];
    switch (in.op) {
      case Op::NOP:
        break;
      case Op::LDC_I4:
        push(ValType::I32, Slot::from_i32(static_cast<std::int32_t>(in.imm.i64)));
        break;
      case Op::LDC_I8:
        push(ValType::I64, Slot::from_i64(in.imm.i64));
        break;
      case Op::LDC_R4:
        push(ValType::F32, Slot::from_f32(static_cast<float>(in.imm.f64)));
        break;
      case Op::LDC_R8:
        push(ValType::F64, Slot::from_f64(in.imm.f64));
        break;
      case Op::LDNULL:
        push(ValType::Ref, Slot::from_ref(nullptr));
        break;
      case Op::LDSTR: {
        gc_point(pc);
        ObjRef s = vm_.heap().alloc_string(mod.string_at(in.a), &ctx.tlab);
        if (s == nullptr) {
          EXEC_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        push(ValType::Ref, Slot::from_ref(s));
        break;
      }

      case Op::LDLOC:
        load(m.num_args() + static_cast<std::size_t>(in.a));
        break;
      case Op::STLOC:
        loc[m.num_args() + static_cast<std::size_t>(in.a)] = pop();
        break;
      case Op::LDARG:
        load(static_cast<std::size_t>(in.a));
        break;
      case Op::STARG:
        loc[static_cast<std::size_t>(in.a)] = pop();
        break;
      case Op::DUP:
        st[frame.sp] = st[frame.sp - 1];
        ++frame.sp;
        break;
      case Op::POP:
        --frame.sp;
        break;

      case Op::ADD:
        if (!arith(in.type, kOp<Op::ADD>)) goto arith_fault;
        break;
      case Op::SUB:
        if (!arith(in.type, kOp<Op::SUB>)) goto arith_fault;
        break;
      case Op::MUL:
        if (!arith(in.type, kOp<Op::MUL>)) goto arith_fault;
        break;
      case Op::DIV:
        if (!arith(in.type, kOp<Op::DIV>)) goto arith_fault;
        break;
      case Op::REM:
        if (!arith(in.type, kOp<Op::REM>)) goto arith_fault;
        break;
      case Op::NEG: {
        const Operands o = unary(in.type);
        switch (o.t) {
          case ValType::I32: put(o.t, Slot::from_i32(arith::sub_i32(0, o.a.i32))); break;
          case ValType::I64: put(o.t, Slot::from_i64(arith::sub_i64(0, o.a.i64))); break;
          case ValType::F32: put(o.t, Slot::from_f32(-o.a.f32)); break;
          default: put(o.t, Slot::from_f64(-o.a.f64)); break;
        }
        break;
      }

      case Op::AND:
        if (!arith(in.type, kOp<Op::AND>)) goto arith_fault;
        break;
      case Op::OR:
        if (!arith(in.type, kOp<Op::OR>)) goto arith_fault;
        break;
      case Op::XOR:
        if (!arith(in.type, kOp<Op::XOR>)) goto arith_fault;
        break;
      case Op::NOT: {
        const Operands o = unary(in.type);
        if (o.t == ValType::I32) put(o.t, Slot::from_i32(~o.a.i32));
        else put(o.t, Slot::from_i64(~o.a.i64));
        break;
      }
      case Op::SHL:
        if (!arith(in.type, kOp<Op::SHL>)) goto arith_fault;
        break;
      case Op::SHR:
        if (!arith(in.type, kOp<Op::SHR>)) goto arith_fault;
        break;
      case Op::SHR_UN:
        if (!arith(in.type, kOp<Op::SHR_UN>)) goto arith_fault;
        break;

      case Op::CEQ:
      case Op::CGT:
      case Op::CLT: {
        const Operands o = binary(in.type);
        if (!o.same) goto tag_mismatch;
        const Slot a = o.a, b = o.b;
        bool r = false;
        switch (o.t) {
          case ValType::I32:
            r = in.op == Op::CEQ ? a.i32 == b.i32
                : in.op == Op::CGT ? a.i32 > b.i32 : a.i32 < b.i32;
            break;
          case ValType::I64:
            r = in.op == Op::CEQ ? a.i64 == b.i64
                : in.op == Op::CGT ? a.i64 > b.i64 : a.i64 < b.i64;
            break;
          case ValType::F32:
            r = in.op == Op::CEQ ? a.f32 == b.f32
                : in.op == Op::CGT ? a.f32 > b.f32 : a.f32 < b.f32;
            break;
          case ValType::F64:
            r = in.op == Op::CEQ ? a.f64 == b.f64
                : in.op == Op::CGT ? a.f64 > b.f64 : a.f64 < b.f64;
            break;
          case ValType::Ref:
            r = in.op == Op::CEQ && a.ref == b.ref;
            break;
          case ValType::None:
            break;
        }
        put(ValType::I32, Slot::from_i32(r ? 1 : 0));
        break;
      }

      case Op::BR: {
        if (in.a <= pc) {
          const Edge e = back_edge(in.a);
          if (e == Edge::Fault) goto dispatch_exception;
          if (e == Edge::Replaced) return osr_result;
        }
        pc = in.a;
        continue;
      }
      case Op::BRTRUE:
      case Op::BRFALSE: {
        const Operands o = unary(in.type);
        drop();
        bool truth;
        switch (o.t) {
          case ValType::Ref: truth = o.a.ref != nullptr; break;
          case ValType::I64: truth = o.a.i64 != 0; break;
          default: truth = o.a.i32 != 0; break;
        }
        if (truth == (in.op == Op::BRTRUE)) {
          if (in.a <= pc) {
            const Edge e = back_edge(in.a);
            if (e == Edge::Fault) goto dispatch_exception;
            if (e == Edge::Replaced) return osr_result;
          }
          pc = in.a;
          continue;
        }
        break;
      }
      case Op::BEQ:
      case Op::BNE:
      case Op::BLT:
      case Op::BLE:
      case Op::BGT:
      case Op::BGE: {
        const Operands o = binary(in.type);
        if (!o.same) goto tag_mismatch;
        drop();
        auto cmp = [&](auto x, auto y) {
          switch (in.op) {
            case Op::BEQ: return x == y;
            case Op::BNE: return x != y;
            case Op::BLT: return x < y;
            case Op::BLE: return x <= y;
            case Op::BGT: return x > y;
            default: return x >= y;
          }
        };
        bool taken = false;
        switch (o.t) {
          case ValType::I32: taken = cmp(o.a.i32, o.b.i32); break;
          case ValType::I64: taken = cmp(o.a.i64, o.b.i64); break;
          case ValType::F32: taken = cmp(o.a.f32, o.b.f32); break;
          case ValType::F64: taken = cmp(o.a.f64, o.b.f64); break;
          case ValType::Ref:
            taken = in.op == Op::BEQ ? o.a.ref == o.b.ref : o.a.ref != o.b.ref;
            break;
          case ValType::None: break;
        }
        if (taken) {
          if (in.a <= pc) {
            const Edge e = back_edge(in.a);
            if (e == Edge::Fault) goto dispatch_exception;
            if (e == Edge::Replaced) return osr_result;
          }
          pc = in.a;
          continue;
        }
        break;
      }

      case Op::CONV_I4:
      case Op::CONV_I8:
      case Op::CONV_R4:
      case Op::CONV_R8:
      case Op::CONV_I1:
      case Op::CONV_U1:
      case Op::CONV_I2:
      case Op::CONV_U2: {
        const Operands o = unary(in.type);
        const bool is_float = o.t == ValType::F32 || o.t == ValType::F64;
        double fv = 0;
        std::int64_t iv = 0;
        switch (o.t) {
          case ValType::I32: iv = o.a.i32; fv = o.a.i32; break;
          case ValType::I64: iv = o.a.i64; fv = static_cast<double>(o.a.i64); break;
          case ValType::F32: fv = o.a.f32; break;
          default: fv = o.a.f64; break;
        }
        const std::int32_t x =
            is_float ? arith::f_to_i32(fv) : static_cast<std::int32_t>(iv);
        switch (in.op) {
          case Op::CONV_I4:
            put(ValType::I32, Slot::from_i32(x));
            break;
          case Op::CONV_I8:
            put(ValType::I64, Slot::from_i64(is_float ? arith::f_to_i64(fv) : iv));
            break;
          case Op::CONV_R4:
            put(ValType::F32, Slot::from_f32(is_float ? static_cast<float>(fv)
                                                      : static_cast<float>(iv)));
            break;
          case Op::CONV_R8:
            put(ValType::F64, Slot::from_f64(is_float ? fv : static_cast<double>(iv)));
            break;
          case Op::CONV_I1:
            put(ValType::I32, Slot::from_i32(static_cast<std::int8_t>(x)));
            break;
          case Op::CONV_U1:
            put(ValType::I32, Slot::from_i32(static_cast<std::uint8_t>(x)));
            break;
          case Op::CONV_I2:
            put(ValType::I32, Slot::from_i32(static_cast<std::int16_t>(x)));
            break;
          default:
            put(ValType::I32, Slot::from_i32(static_cast<std::uint16_t>(x)));
            break;
        }
        break;
      }

      case Op::CALL: {
        if constexpr (!kTagged) {
          gc_point(pc);
          vm_.safepoint_poll(ctx);
        }
        const MethodDef& callee = mod.method(in.a);
        const std::size_t argc = callee.sig.params.size();
        Slot argbuf[kTagged ? kMaxCallArgs : 1];
        const Slot* cargs = call_args(argc, argbuf);
        // Tiered mode routes calls through the engine so a hot callee runs
        // on its promoted tier; Single mode keeps the direct recursion.
        const Slot r = tiered_ ? engine_.call(ctx, in.a, cargs)
                               : exec(ctx, callee, cargs);
        if (ctx.has_pending()) goto dispatch_exception;
        frame.sp -= static_cast<std::int32_t>(argc);
        if (callee.sig.ret != ValType::None) push(callee.sig.ret, r);
        break;
      }
      case Op::CALLINTR: {
        gc_point(pc);
        const IntrinsicDef& d = intrinsic(in.a);
        const std::size_t argc = d.sig.params.size();
        Slot argbuf[kTagged ? kMaxIntrinsicArgs : 1];
        Slot r;
        d.fn(ctx, call_args(argc, argbuf), &r);
        if (ctx.has_pending()) goto dispatch_exception;
        frame.sp -= static_cast<std::int32_t>(argc);
        if (d.sig.ret != ValType::None) push(d.sig.ret, r);
        break;
      }
      case Op::RET:
        if (m.sig.ret != ValType::None) result = val(st[frame.sp - 1]);
        return result;  // frame_exit tears down

      case Op::NEWOBJ: {
        gc_point(pc);
        ObjRef obj = vm_.heap().alloc_instance(in.a, &ctx.tlab);
        if (obj == nullptr) {
          EXEC_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        push(ValType::Ref, Slot::from_ref(obj));
        break;
      }
      case Op::LDFLD: {
        ObjRef obj = val(st[frame.sp - 1]).ref;
        if (obj == nullptr) EXEC_THROW(mod.null_reference_class(), "ldfld");
        unary(in.type);
        put(in.type, obj->fields()[in.a]);
        break;
      }
      case Op::STFLD: {
        const Slot v = val(st[--frame.sp]);
        ObjRef obj = val(st[--frame.sp]).ref;
        if (obj == nullptr) EXEC_THROW(mod.null_reference_class(), "stfld");
        obj->fields()[in.a] = v;
        if (in.type == ValType::Ref) gc_write_barrier(obj);
        break;
      }
      case Op::LDSFLD:
        push(in.type, mod.statics(in.b)[in.a]);
        break;
      case Op::STSFLD:
        mod.statics(in.b)[in.a] = val(st[--frame.sp]);
        break;

      case Op::NEWARR: {
        gc_point(pc);
        const std::int32_t len = val(st[frame.sp - 1]).i32;
        if (len < 0) EXEC_THROW(mod.index_range_class(), "negative array size");
        ObjRef arr = vm_.heap().alloc_array(in.type, len, &ctx.tlab);
        if (arr == nullptr) {
          EXEC_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        set_top(ValType::Ref, Slot::from_ref(arr));
        break;
      }
      case Op::LDLEN: {
        ObjRef arr = val(st[frame.sp - 1]).ref;
        if (arr == nullptr) EXEC_THROW(mod.null_reference_class(), "ldlen");
        set_top(ValType::I32, Slot::from_i32(arr->length));
        break;
      }
      case Op::LDELEM: {
        const std::int32_t idx = val(st[--frame.sp]).i32;
        ObjRef arr = unary(in.type).a.ref;
        if (arr == nullptr) EXEC_THROW(mod.null_reference_class(), "ldelem");
        if constexpr (kTagged) {
          if (arr->kind != ObjKind::Array || arr->elem != in.type) {
            EXEC_THROW(mod.invalid_cast_class(), "ldelem element type");
          }
        }
        if (idx < 0 || idx >= arr->length) {
          EXEC_THROW(mod.index_range_class(), "index out of range");
        }
        switch (in.type) {
          case ValType::I32: put(in.type, Slot::from_i32(arr->i32_data()[idx])); break;
          case ValType::I64: put(in.type, Slot::from_i64(arr->i64_data()[idx])); break;
          case ValType::F32: put(in.type, Slot::from_f32(arr->f32_data()[idx])); break;
          case ValType::F64: put(in.type, Slot::from_f64(arr->f64_data()[idx])); break;
          default: put(in.type, Slot::from_ref(arr->ref_data()[idx])); break;
        }
        break;
      }
      case Op::STELEM: {
        const Slot v = val(st[--frame.sp]);
        const std::int32_t idx = val(st[--frame.sp]).i32;
        ObjRef arr = val(st[--frame.sp]).ref;
        if (arr == nullptr) EXEC_THROW(mod.null_reference_class(), "stelem");
        if constexpr (kTagged) {
          if (arr->kind != ObjKind::Array || arr->elem != in.type) {
            EXEC_THROW(mod.invalid_cast_class(), "stelem element type");
          }
        }
        if (idx < 0 || idx >= arr->length) {
          EXEC_THROW(mod.index_range_class(), "index out of range");
        }
        switch (in.type) {
          case ValType::I32: arr->i32_data()[idx] = v.i32; break;
          case ValType::I64: arr->i64_data()[idx] = v.i64; break;
          case ValType::F32: arr->f32_data()[idx] = v.f32; break;
          case ValType::F64: arr->f64_data()[idx] = v.f64; break;
          default:
            arr->ref_data()[idx] = v.ref;
            gc_write_barrier(arr);
            break;
        }
        break;
      }
      case Op::NEWMAT: {
        gc_point(pc);
        const std::int32_t cols = val(st[frame.sp - 1]).i32;
        const std::int32_t rows = val(st[frame.sp - 2]).i32;
        if (rows < 0 || cols < 0) {
          EXEC_THROW(mod.index_range_class(), "negative matrix size");
        }
        ObjRef mat = vm_.heap().alloc_matrix2(in.type, rows, cols, &ctx.tlab);
        if (mat == nullptr) {
          EXEC_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        frame.sp -= 1;
        set_top(ValType::Ref, Slot::from_ref(mat));
        break;
      }
      case Op::LDELEM2: {
        const std::int32_t c = val(st[--frame.sp]).i32;
        const std::int32_t r = val(st[--frame.sp]).i32;
        ObjRef mat = unary(in.type).a.ref;
        if (mat == nullptr) EXEC_THROW(mod.null_reference_class(), "ldelem2");
        if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
          EXEC_THROW(mod.index_range_class(), "matrix index out of range");
        }
        const std::int64_t i = static_cast<std::int64_t>(r) * mat->cols + c;
        switch (in.type) {
          case ValType::I32: put(in.type, Slot::from_i32(mat->i32_data()[i])); break;
          case ValType::I64: put(in.type, Slot::from_i64(mat->i64_data()[i])); break;
          case ValType::F32: put(in.type, Slot::from_f32(mat->f32_data()[i])); break;
          case ValType::F64: put(in.type, Slot::from_f64(mat->f64_data()[i])); break;
          default: put(in.type, Slot::from_ref(mat->ref_data()[i])); break;
        }
        break;
      }
      case Op::STELEM2: {
        const Slot v = val(st[--frame.sp]);
        const std::int32_t c = val(st[--frame.sp]).i32;
        const std::int32_t r = val(st[--frame.sp]).i32;
        ObjRef mat = val(st[--frame.sp]).ref;
        if (mat == nullptr) EXEC_THROW(mod.null_reference_class(), "stelem2");
        if (r < 0 || r >= mat->length || c < 0 || c >= mat->cols) {
          EXEC_THROW(mod.index_range_class(), "matrix index out of range");
        }
        const std::int64_t i = static_cast<std::int64_t>(r) * mat->cols + c;
        switch (in.type) {
          case ValType::I32: mat->i32_data()[i] = v.i32; break;
          case ValType::I64: mat->i64_data()[i] = v.i64; break;
          case ValType::F32: mat->f32_data()[i] = v.f32; break;
          case ValType::F64: mat->f64_data()[i] = v.f64; break;
          default:
            mat->ref_data()[i] = v.ref;
            gc_write_barrier(mat);
            break;
        }
        break;
      }
      case Op::LDMATROWS:
      case Op::LDMATCOLS: {
        ObjRef mat = val(st[frame.sp - 1]).ref;
        if (mat == nullptr) EXEC_THROW(mod.null_reference_class(), "ldmat");
        set_top(ValType::I32, Slot::from_i32(in.op == Op::LDMATROWS
                                                  ? mat->length
                                                  : mat->cols));
        break;
      }

      case Op::BOX: {
        gc_point(pc);
        ObjRef box =
            vm_.heap().alloc_box(in.type, val(st[frame.sp - 1]), &ctx.tlab);
        if (box == nullptr) {
          EXEC_THROW(mod.out_of_memory_class(), "allocation budget exhausted");
        }
        set_top(ValType::Ref, Slot::from_ref(box));
        break;
      }
      case Op::UNBOX: {
        ObjRef box = val(st[frame.sp - 1]).ref;
        if (box == nullptr) EXEC_THROW(mod.null_reference_class(), "unbox");
        if (box->kind != ObjKind::Boxed || box->elem != in.type) {
          EXEC_THROW(mod.invalid_cast_class(), "unbox type mismatch");
        }
        unary(in.type);
        put(in.type, box->fields()[0]);
        break;
      }

      case Op::THROW: {
        ObjRef exc = val(st[--frame.sp]).ref;
        if (exc == nullptr) EXEC_THROW(mod.null_reference_class(), "throw null");
        gc_point(pc);
        ctx.pending_exception = exc;
        goto dispatch_exception;
      }
      case Op::LEAVE: {
        const UnwindAction a = uw.on_leave(m, pc, in.a);
        frame.sp = 0;
        pc = a.pc;
        continue;
      }
      case Op::ENDFINALLY: {
        const UnwindAction a = uw.on_endfinally(mod, m);
        switch (a.kind) {
          case UnwindAction::Kind::Resume:
          case UnwindAction::Kind::EnterFinally:
            frame.sp = 0;
            pc = a.pc;
            continue;
          case UnwindAction::Kind::EnterCatch:
            frame.sp = 0;
            push(ValType::Ref, Slot::from_ref(uw.exception()));
            pc = a.pc;
            continue;
          case UnwindAction::Kind::Propagate:
            ctx.pending_exception = uw.exception();
            return result;  // frame_exit tears down
        }
        break;
      }

      case Op::COUNT_:
        break;
    }
    ++pc;
    continue;

  arith_fault:
    if (div != arith::DivStatus::Ok) {
      gc_point(pc);
      vm_.throw_div_fault(ctx, div);
      goto dispatch_exception;
    }
  tag_mismatch:
    EXEC_THROW(mod.invalid_cast_class(), "operand tag mismatch");
    }

  dispatch_exception: {
    ObjRef exc = ctx.pending_exception;
    ctx.pending_exception = nullptr;
    const UnwindAction a = uw.on_throw(mod, m, pc, exc);
    switch (a.kind) {
      case UnwindAction::Kind::EnterCatch:
        frame.sp = 0;
        push(ValType::Ref, Slot::from_ref(uw.exception()));
        pc = a.pc;
        continue;
      case UnwindAction::Kind::EnterFinally:
        frame.sp = 0;
        pc = a.pc;
        continue;
      default:
        ctx.pending_exception = exc;
        return result;  // frame_exit tears down
    }
  }
  }
}

#undef EXEC_THROW

}  // namespace

std::unique_ptr<TierBackend> make_interp_backend(VirtualMachine& vm,
                                                 TieredEngine& engine) {
  return std::make_unique<StackExecutor<Tagged>>(vm, engine);
}

std::unique_ptr<TierBackend> make_baseline_backend(VirtualMachine& vm,
                                                   TieredEngine& engine) {
  return std::make_unique<StackExecutor<Typed>>(vm, engine);
}

}  // namespace hpcnet::vm

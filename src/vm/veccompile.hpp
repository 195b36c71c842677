// Vector lowering pass (DESIGN.md §12): recognizes innermost counted loops
// with map/daxpy, reduction, and SOR-stencil bodies in pre-compaction RegIR
// and plants a VECLOOP superinstruction in each loop's preheader. The scalar
// loop is always retained as the slow path — VECLOOP is a guarded fast path,
// never a replacement — so deopt, OSR and exception semantics are untouched.
#pragma once

#include "vm/regir_ops.hpp"

namespace hpcnet::vm::regir {

/// Runs the recognizer to fixpoint; returns the number of loops lowered.
int lower_vector_loops(const IrView& ir);

}  // namespace hpcnet::vm::regir

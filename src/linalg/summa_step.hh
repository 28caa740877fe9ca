// Separately-rounded SUMMA step accumulation.
//
// A SUMMA step's update C += alpha * op(A_il) * op(B_lj) is, in the plain
// tile gemm, accumulated element-by-element into C across the inner k loop
// — the per-step contribution never exists as a single rounded value, so it
// cannot be computed on another rank and shipped. The helpers below compute
// each step's contribution into a zeroed product tile first (one rounding
// per element) and fold it with a single elementwise add. Every step of the
// one distributed SUMMA, comm::summa_25d (all of them on layer 0 at c = 1,
// the 2D case; a block of them on each remote layer at c > 1; dqdwh's
// trailing Q1 Q2^H update included), goes through this primitive, which is
// exactly what makes the 2.5D path's shipped product tiles bit-identical to
// the 2D oracle's local ascending-l fold: the fold is
// C = ((beta*C + z_0) + z_1) + ... with each z_l a rounded value that is the
// same no matter which layer computed it.

#pragma once

#include <vector>

#include "blas/gemm.hh"
#include "blas/util.hh"
#include "matrix/tile.hh"

namespace tbp::la {

/// Per-thread product-tile scratch: every virtual rank runs on its own
/// thread, so the scratch is thread-local (same pattern as the kernel pack
/// arenas).
template <typename T>
inline std::vector<T>& summa_step_scratch() {
    thread_local std::vector<T> buf;
    return buf;
}

/// z := alpha * op(a) * op(b) into caller storage (beta = 0 semantics: z is
/// written without being read). This is the value a remote 2.5D layer ships.
template <typename T>
void summa_step_product(Op opA, Op opB, T alpha, Tile<T> const& a,
                        Tile<T> const& b, Tile<T> const& z) {
    blas::gemm(opA, opB, alpha, a, b, T(0), z);
}

/// c += round(alpha * op(a) * op(b)): the product is computed into the
/// thread-local scratch and folded with one elementwise add, so the step
/// contribution is a single rounded tile independent of where it was
/// computed.
template <typename T>
void summa_step_accumulate(Op opA, Op opB, T alpha, Tile<T> const& a,
                           Tile<T> const& b, Tile<T> const& c) {
    auto& buf = summa_step_scratch<T>();
    buf.resize(static_cast<size_t>(c.mb()) * c.nb());
    Tile<T> z(buf.data(), c.mb(), c.nb(), c.mb());
    summa_step_product(opA, opB, alpha, a, b, z);
    blas::add(T(1), z, T(1), c);
}

}  // namespace tbp::la

// Blocked GEMM driver over the packed micro-kernels.
//
// Classic five-loop Goto/BLIS structure: NC column panels of op(B), KC deep
// k-panels (packed once per (jc, pc)), MC row panels of op(A) (packed once
// per (pc, ic)), then the NR x MR register-block sweep calling the
// micro-kernel. Pack buffers come from the calling thread's arena, so a task
// worker allocates at most once per buffer growth, not per tile.
//
// Semantics are identical to blas::gemm_naive (see blas/gemm.hh), including
// the BLAS beta convention: beta == 0 stores zeros without reading C, so
// NaN/Inf in uninitialized C tiles cannot leak into results.
//
// Float-typed gemms consult the thread's execution-time gemm mode
// (prec::exec_gemm_mode): under Bf16 both operands are truncated to bf16 at
// pack time and the unchanged fp32 micro-kernel accumulates them (the
// bf16-in/fp32-accumulate matrix-unit contract). Double-typed gemms never
// consult the mode.

#pragma once

#include <algorithm>

#include "blas/kernel/arena.hh"
#include "blas/kernel/microkernel.hh"
#include "blas/kernel/pack.hh"
#include "blas/kernel/params.hh"
#include "common/error.hh"
#include "common/precision.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas::kernel {

/// BLAS-convention beta scaling: beta == 1 leaves C untouched, beta == 0
/// stores T(0) unconditionally (clearing NaN/Inf), anything else scales.
template <typename T>
inline void scale_beta(T beta, Tile<T> const& C) {
    if (beta == T(1))
        return;
    for (int j = 0; j < C.nb(); ++j)
        for (int i = 0; i < C.mb(); ++i)
            C(i, j) = (beta == T(0)) ? T(0) : beta * C(i, j);
}

namespace detail {

/// Strip base pointers are computed in T units and viewed as real planes for
/// the split-complex kernels (same element count either way, see pack.hh).
template <typename T>
inline auto plane(T const* p) {
    if constexpr (is_complex_v<T>)
        return reinterpret_cast<real_t<T> const*>(p);
    else
        return p;
}

}  // namespace detail

/// C := alpha * op(A) * op(B) + beta * C through the packed micro-kernel.
/// Dimension contract matches blas::gemm.
template <typename T>
void gemm(Op opA, Op opB, T alpha, Tile<T> const& A, Tile<T> const& B,
          T beta, Tile<T> const& C) {
    int const m = C.mb();
    int const n = C.nb();
    int const k = (opA == Op::NoTrans) ? A.nb() : A.mb();

    tbp_require(((opA == Op::NoTrans) ? A.mb() : A.nb()) == m);
    tbp_require(((opB == Op::NoTrans) ? B.mb() : B.nb()) == k);
    tbp_require(((opB == Op::NoTrans) ? B.nb() : B.mb()) == n);

    scale_beta(beta, C);
    if (alpha == T(0) || k == 0)
        return;

    auto trans = prec::PackTrans::None;
    if constexpr (std::is_same_v<real_t<T>, float>)
        if (prec::exec_gemm_mode() == prec::GemmMode::Bf16)
            trans = prec::PackTrans::Bf16Hi;

    using P = Params<T>;
    auto& arena = tls_arena<T>();
    for (int jc = 0; jc < n; jc += P::NC) {
        int const nc = std::min(P::NC, n - jc);
        int const nstrips = (nc + P::NR - 1) / P::NR;
        for (int pc = 0; pc < k; pc += P::KC) {
            int const kc = std::min(P::KC, k - pc);
            T* bbuf = arena.get(kPackB,
                                static_cast<std::size_t>(nstrips) * P::NR * kc);
            pack_b(opB, B, pc, jc, kc, nc, bbuf, trans);
            for (int ic = 0; ic < m; ic += P::MC) {
                int const mc = std::min(P::MC, m - ic);
                int const mstrips = (mc + P::MR - 1) / P::MR;
                T* abuf = arena.get(
                    kPackA, static_cast<std::size_t>(mstrips) * P::MR * kc);
                pack_a(opA, A, ic, pc, mc, kc, abuf, trans);
                for (int jr = 0; jr < nc; jr += P::NR) {
                    int const nr = std::min(P::NR, nc - jr);
                    T const* bp = bbuf
                                  + static_cast<std::size_t>(jr / P::NR) * kc
                                        * P::NR;
                    for (int ir = 0; ir < mc; ir += P::MR) {
                        int const mr = std::min(P::MR, mc - ir);
                        T const* ap = abuf
                                      + static_cast<std::size_t>(ir / P::MR)
                                            * kc * P::MR;
                        T* cp = &C(ic + ir, jc + jr);
                        if (mr == P::MR && nr == P::NR)
                            ukernel(kc, alpha, detail::plane(ap),
                                    detail::plane(bp), cp, C.ld());
                        else
                            ukernel_fringe(kc, alpha, detail::plane(ap),
                                           detail::plane(bp), cp, C.ld(), mr,
                                           nr);
                    }
                }
            }
        }
    }
}

}  // namespace tbp::blas::kernel

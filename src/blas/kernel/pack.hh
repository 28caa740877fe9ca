// Packing of tile operands into contiguous, cache-blocked panels.
//
// pack_a lays out an mc x kc block of op(A) as ceil(mc/MR) strips, each strip
// holding kc steps of MR contiguous scalars (the micro-kernel's A operand);
// pack_b lays out a kc x nc block of op(B) as NR-column strips. Both
// zero-pad the last partial strip to full MR/NR width so the micro-kernel
// never needs edge masks — fringe handling happens only on the C store.
//
// The transpose/conjugation of the operand is absorbed here: the micro-kernel
// always sees plain row-strips, so one kernel serves all Op combinations.
//
// Complex scalars are split into real/imaginary planes per k-step
// ([MR reals][MR imags]), which lets the complex micro-kernels vectorize on
// contiguous real data. A strip therefore occupies the same number of
// *complex* elements (kc * MR) whether split or not, so buffer sizing in T
// units is uniform across types.
//
// Simulated bf16 lives here as well: a pack-time value transform
// (prec::PackTrans) truncates each packed float scalar to bf16 with
// round-to-nearest-even (componentwise for complex). The micro-kernel
// itself is unchanged — it accumulates the truncated operands in fp32,
// which is exactly the bf16-in/fp32-accumulate contract of real matrix
// units. Double-typed packs never consult the transform.
//
// Where the loops compile: these templates are inlined into kernel::gemm
// and compile at -O2 in every TU that includes this header. Moving them
// into the -O3 target_clones TU (microkernel.cc) as per-type overloads
// made a 16^3 and 32^3 double gemm ~1.7x faster in best-of timing, but did
// not beat the inline loops on double 64^3 in bench_gemm_kernel (4 of 10
// alternating runs, median 29.0 against 30.1 GF/s), so they stay here.

#pragma once

#include <algorithm>

#include "blas/kernel/params.hh"
#include "common/precision.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas::kernel {

namespace detail {

/// Apply the pack-time value transform to one scalar. Only float-kind
/// scalars are ever transformed; the double instantiations keep their
/// straight-copy loops.
template <typename T>
inline T pack_value(prec::PackTrans tr, T v) {
    if constexpr (std::is_same_v<T, float>) {
        return prec::apply_pack_trans(tr, v);
    } else if constexpr (std::is_same_v<T, std::complex<float>>) {
        return T(prec::apply_pack_trans(tr, v.real()),
                 prec::apply_pack_trans(tr, v.imag()));
    } else {
        (void)tr;
        return v;
    }
}

/// Write mc x kc elements elem(i, l) as MR-row strips into buf.
template <typename T, int BR, typename Elem>
inline void pack_strips(int mc, int kc, Elem&& elem, T* buf,
                        prec::PackTrans tr = prec::PackTrans::None) {
    using R = real_t<T>;
    if constexpr (is_complex_v<T>) {
        R* out = reinterpret_cast<R*>(buf);
        for (int ir = 0; ir < mc; ir += BR) {
            int const br = std::min(BR, mc - ir);
            for (int l = 0; l < kc; ++l, out += 2 * BR) {
                for (int i = 0; i < br; ++i) {
                    T const v = pack_value<T>(tr, elem(ir + i, l));
                    out[i] = v.real();
                    out[BR + i] = v.imag();
                }
                for (int i = br; i < BR; ++i) {
                    out[i] = R(0);
                    out[BR + i] = R(0);
                }
            }
        }
    } else {
        T* out = buf;
        for (int ir = 0; ir < mc; ir += BR) {
            int const br = std::min(BR, mc - ir);
            for (int l = 0; l < kc; ++l, out += BR) {
                for (int i = 0; i < br; ++i)
                    out[i] = pack_value<T>(tr, elem(ir + i, l));
                for (int i = br; i < BR; ++i)
                    out[i] = T(0);
            }
        }
    }
}

}  // namespace detail

/// Pack rows [i0, i0+mc) x columns [p0, p0+kc) of op(A) into MR strips.
template <typename T>
void pack_a(Op op, Tile<T> const& A, int i0, int p0, int mc, int kc, T* buf,
            prec::PackTrans tr = prec::PackTrans::None) {
    constexpr int MR = Params<T>::MR;
    switch (op) {
        case Op::NoTrans:
            detail::pack_strips<T, MR>(
                mc, kc, [&](int i, int l) { return A(i0 + i, p0 + l); }, buf,
                tr);
            break;
        case Op::Trans:
            detail::pack_strips<T, MR>(
                mc, kc, [&](int i, int l) { return A(p0 + l, i0 + i); }, buf,
                tr);
            break;
        case Op::ConjTrans:
            detail::pack_strips<T, MR>(
                mc, kc,
                [&](int i, int l) { return conj_val(A(p0 + l, i0 + i)); },
                buf, tr);
            break;
    }
}

/// Pack rows [p0, p0+kc) x columns [j0, j0+nc) of op(B) into NR strips
/// (strips run over columns; each k-step holds NR column values).
template <typename T>
void pack_b(Op op, Tile<T> const& B, int p0, int j0, int kc, int nc, T* buf,
            prec::PackTrans tr = prec::PackTrans::None) {
    constexpr int NR = Params<T>::NR;
    switch (op) {
        case Op::NoTrans:
            detail::pack_strips<T, NR>(
                nc, kc, [&](int j, int l) { return B(p0 + l, j0 + j); }, buf,
                tr);
            break;
        case Op::Trans:
            detail::pack_strips<T, NR>(
                nc, kc, [&](int j, int l) { return B(j0 + j, p0 + l); }, buf,
                tr);
            break;
        case Op::ConjTrans:
            detail::pack_strips<T, NR>(
                nc, kc,
                [&](int j, int l) { return conj_val(B(j0 + j, p0 + l)); },
                buf, tr);
            break;
    }
}

}  // namespace tbp::blas::kernel

// Blocking parameters and path selection for the micro-kernel tile BLAS.
//
// The kernel layer follows the classic GotoBLAS/BLIS decomposition: an
// MR x NR register-blocked micro-kernel at the bottom, fed by A panels packed
// into MC x KC buffers (MR-row strips) and B panels packed into KC x NC
// buffers (NR-column strips). MR x NR is sized so the accumulator block stays
// in vector registers; KC so a packed A strip plus B strip live in L1/L2; MC
// so the packed A panel fits L2.
//
// Retuning: always measure with `bench_gemm_kernel` after any change — the
// auto-vectorizer's register allocation is shape-sensitive in ways simple
// register counting does not predict. Measured example (this container's
// GCC 12, AVX-512 clone): float MR=16/NR=6 collapses to ~2 GF/s while both
// MR=8 and MR=32 at the same NR exceed 45/150 GF/s, and double MR=16 shows
// the same cliff. The shapes below were chosen from isolated micro-kernel
// sweeps and validated on both the AVX-512 and AVX2 clones. MC/KC only
// shift cache behaviour (keep MC a multiple of MR); NC is effectively
// unbounded here because tile dimensions stay in the hundreds.
//
// Complex types use split real/imaginary packing (see pack.hh), so their
// micro-kernels run on contiguous real planes and auto-vectorize like the
// real kernels.
//
// Two size thresholds route the tile kernels onto this layer:
// kGemmCrossover for gemm itself, and kTriBase, the base case of the
// recursive triangular kernels, the recursive panel factorizations and the
// Householder appliers' T product, so a tile of 32 or more spends most of
// its flops in the micro-kernel.

#pragma once

#include <complex>

namespace tbp::blas::kernel {

template <typename T>
struct Params;

template <>
struct Params<float> {
    static constexpr int MR = 32, NR = 6;
    static constexpr int MC = 128, KC = 320, NC = 4096;
};

template <>
struct Params<double> {
    static constexpr int MR = 8, NR = 6;
    static constexpr int MC = 96, KC = 256, NC = 4096;
};

template <>
struct Params<std::complex<float>> {
    static constexpr int MR = 32, NR = 4;
    static constexpr int MC = 96, KC = 256, NC = 4096;
};

template <>
struct Params<std::complex<double>> {
    static constexpr int MR = 4, NR = 4;
    static constexpr int MC = 64, KC = 192, NC = 4096;
};

/// Base case of the recursive triangular kernels in level3.hh (trsm, herk),
/// of the recursive panels (geqrt, tsqrt, ttqrt in householder.hh, potrf
/// in factor.hh) and of the Householder appliers' T-factor product:
/// a triangular or column dimension at or below it runs the naive element
/// loops (herk's diagonal blocks instead go through gemm into a workspace,
/// trsm's through trsm_base), anything larger is halved with GEMM work
/// between the halves.
inline constexpr int kTriBase = 16;

/// Below this m*n*k volume the packed path's setup cost is not worth it and
/// the dispatchers use the naive kernels directly.
inline constexpr double kGemmCrossover = 2048;

}  // namespace tbp::blas::kernel

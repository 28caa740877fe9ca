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
// register counting does not predict. Measured on one core of a shared
// 4-core AVX-512 Xeon, GCC 12, AVX-512 clone:
//   - double, MR x NR at 64^3 / 128^3 / 192^3 GF/s: 8x6 (6 zmm
//     accumulators) 21.5 / 27.4 / 31.0; 32x6 (24 accumulators) 44.6 / 60.1
//     / 67.9; 24x8 34.8 / 47.1 / 58.4; 32x8 44.1 / 55.5 / 55.5; 16x6,
//     16x8, 16x12 and 8x12 collapse to 2-6 GF/s. MC/KC sweeps around
//     96/256 at 32x6 stayed within noise.
//   - float: MR=16/NR=6 collapses to ~2 GF/s while MR=8 and MR=32 at the
//     same NR exceed 45/150 GF/s — the same MR = 16 cliff.
//   - complex double (split planes): 4x4 runs 25-29 GF/s; 8x4 gives 7.5,
//     8x8 14 and 16x4 5.5. A wider shape needs explicit vector code.
// Without AVX-512 (the TU pinned to one ISA, no target_clones; double,
// best of four best-of-60 timings, 8x6 -> 32x6):
//   - x86-64-v3: 16^3 8.9 -> 6.3, 64^3 17.8 -> 18.4, 192^3 22.8 -> 22.5;
//   - baseline x86-64: 16^3 5.8 -> 3.9, 64^3 8.9 -> 10.4, 192^3 10.2 -> 11.5.
// So a pre-AVX-512 host keeps or gains its rate from 64^3 up but loses
// about 30 % at 16^3, where the fringe kernel computes a full 32-row block
// for 16 rows (on the AVX-512 clone 16^3 stays level). The shape is not
// chosen per ISA: the production tiles are 64 and up, and no measured host
// needs a knob.
// MC/KC only shift cache behaviour (keep MC a multiple of MR); NC is
// effectively unbounded here because tile dimensions stay in the hundreds.
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
    static constexpr int MR = 32, NR = 6;
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

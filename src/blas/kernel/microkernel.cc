// MR x NR register-blocked micro-kernel bodies, and the register-blocked
// loops of the trsm base case.
//
// This translation unit is compiled at -O3 -funroll-loops (see
// src/CMakeLists.txt) while the rest of the tree keeps the default flags,
// and each exported kernel carries GCC target_clones so one binary holds
// AVX-512 / AVX2 / baseline versions selected once at load time by cpuid —
// the portable stand-in for linking a vendor BLAS tuned per machine.
//
// The bodies are written so the compiler's auto-vectorizer does the work:
// fixed MR/NR trip counts, a local accumulator array that maps onto vector
// registers, contiguous packed operands, and __restrict everywhere.
//
// The loop nests are spelled out inside each kernel macro rather than
// factored into a shared template helper: GCC only promotes the accumulator
// array to vector registers when the loops sit directly in the function
// body — routing them through an (even always_inline) helper that takes the
// accumulator by pointer defeats scalar replacement and costs >10x. Measure
// with bench_gemm_kernel before restructuring this file.

#include "blas/kernel/microkernel.hh"

#include "blas/kernel/params.hh"

// target_clones emits an ifunc whose resolver runs before the TSan runtime
// is initialized, which segfaults any instrumented binary at startup (GCC
// 12 + libtsan; reproduce with a 3-line target_clones program under
// -fsanitize=thread). Sanitizer builds measure correctness, not GFLOP/s,
// so they get the un-cloned baseline kernel instead.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define TBP_KERNEL_CLONES \
    __attribute__((target_clones("arch=x86-64-v4,arch=x86-64-v3,default")))
#else
#define TBP_KERNEL_CLONES
#endif

namespace tbp::blas::kernel {

// Rank-kc update of an MR x NR register block from packed strips, then the
// alpha-scaled store into the m x n (<= MR x NR) top-left corner of C.
#define TBP_REAL_UKERNEL_BODY(T, m, n)                                       \
    constexpr int MR = Params<T>::MR, NR = Params<T>::NR;                    \
    T acc[MR * NR] = {};                                                     \
    for (int l = 0; l < kc; ++l, a += MR, b += NR)                           \
        for (int j = 0; j < NR; ++j)                                         \
            for (int i = 0; i < MR; ++i)                                     \
                acc[i + j * MR] += a[i] * b[j];                              \
    for (int j = 0; j < (n); ++j)                                            \
        for (int i = 0; i < (m); ++i)                                        \
            c[i + j * ldc] += alpha * acc[i + j * MR];

#define TBP_DEFINE_REAL_UKERNEL(T)                                           \
    TBP_KERNEL_CLONES                                                        \
    void ukernel(int kc, T alpha, T const* __restrict a,                     \
                 T const* __restrict b, T* __restrict c, int ldc) {          \
        TBP_REAL_UKERNEL_BODY(T, MR, NR)                                     \
    }                                                                        \
    TBP_KERNEL_CLONES                                                        \
    void ukernel_fringe(int kc, T alpha, T const* __restrict a,              \
                        T const* __restrict b, T* __restrict c, int ldc,     \
                        int m, int n) {                                      \
        TBP_REAL_UKERNEL_BODY(T, m, n)                                       \
    }

// Split-complex rank-kc update: the packed planes hold MR (NR) reals then
// MR (NR) imaginaries per k-step, so both product accumulations run on
// contiguous real vectors and auto-vectorize like the real kernels.
#define TBP_CPLX_UKERNEL_BODY(R, m, n)                                       \
    using C = std::complex<R>;                                               \
    constexpr int MR = Params<C>::MR, NR = Params<C>::NR;                    \
    R acr[MR * NR] = {}, aci[MR * NR] = {};                                  \
    for (int l = 0; l < kc; ++l, a += 2 * MR, b += 2 * NR) {                 \
        for (int j = 0; j < NR; ++j) {                                       \
            R const br = b[j];                                               \
            R const bi = b[NR + j];                                          \
            for (int i = 0; i < MR; ++i) {                                   \
                R const ar = a[i];                                           \
                R const ai = a[MR + i];                                      \
                acr[i + j * MR] += ar * br - ai * bi;                        \
                aci[i + j * MR] += ar * bi + ai * br;                        \
            }                                                                \
        }                                                                    \
    }                                                                        \
    R const alr = alpha.real();                                              \
    R const ali = alpha.imag();                                              \
    for (int j = 0; j < (n); ++j)                                            \
        for (int i = 0; i < (m); ++i) {                                      \
            R const pr = acr[i + j * MR];                                    \
            R const pi = aci[i + j * MR];                                    \
            c[i + j * ldc] += C(alr * pr - ali * pi, alr * pi + ali * pr);   \
        }

#define TBP_DEFINE_CPLX_UKERNEL(R)                                           \
    TBP_KERNEL_CLONES                                                        \
    void ukernel(int kc, std::complex<R> alpha, R const* __restrict a,       \
                 R const* __restrict b, std::complex<R>* __restrict c,       \
                 int ldc) {                                                  \
        TBP_CPLX_UKERNEL_BODY(R, MR, NR)                                     \
    }                                                                        \
    TBP_KERNEL_CLONES                                                        \
    void ukernel_fringe(int kc, std::complex<R> alpha,                       \
                        R const* __restrict a, R const* __restrict b,        \
                        std::complex<R>* __restrict c, int ldc, int m,       \
                        int n) {                                             \
        TBP_CPLX_UKERNEL_BODY(R, m, n)                                       \
    }

TBP_DEFINE_REAL_UKERNEL(float)
TBP_DEFINE_REAL_UKERNEL(double)
TBP_DEFINE_CPLX_UKERNEL(float)
TBP_DEFINE_CPLX_UKERNEL(double)

#undef TBP_DEFINE_REAL_UKERNEL
#undef TBP_DEFINE_CPLX_UKERNEL
#undef TBP_REAL_UKERNEL_BODY
#undef TBP_CPLX_UKERNEL_BODY

// trsm_right_upper: `rows` rows of B starting at `bb`, column by column:
// y = B(:, j) - sum_{l < j} X(:, l) U(l, j), then X(:, j) = y * (1 / U(j, j)).
// Full blocks use the constant kTrsmRows so y stays in vector registers;
// the last partial block runs the same loops at its runtime height.
constexpr int kTrsmRows = 2 * kTriBase;

#define TBP_REAL_TRSM_BODY(T, rows)                                          \
    for (int j = 0; j < n; ++j) {                                            \
        T* bj = bb + j * ldb;                                                \
        T y[kTrsmRows];                                                      \
        for (int v = 0; v < (rows); ++v)                                     \
            y[v] = bj[v];                                                    \
        for (int l = 0; l < j; ++l) {                                        \
            T const s = u[l + j * kTriBase];                                 \
            T const* bl = bb + l * ldb;                                      \
            for (int v = 0; v < (rows); ++v)                                 \
                y[v] -= bl[v] * s;                                           \
        }                                                                    \
        T const r = u[j + j * kTriBase];                                     \
        for (int v = 0; v < (rows); ++v)                                     \
            bj[v] = y[v] * r;                                                \
    }

#define TBP_DEFINE_REAL_TRSM(T)                                              \
    TBP_KERNEL_CLONES                                                        \
    void trsm_right_upper(int m, int n, T const* __restrict u,               \
                          T* __restrict b, std::ptrdiff_t ldb) {             \
        int i0 = 0;                                                          \
        for (; i0 + kTrsmRows <= m; i0 += kTrsmRows) {                       \
            T* bb = b + i0;                                                  \
            TBP_REAL_TRSM_BODY(T, kTrsmRows)                                 \
        }                                                                    \
        if (i0 < m) {                                                        \
            int const mb = m - i0;                                           \
            T* bb = b + i0;                                                  \
            TBP_REAL_TRSM_BODY(T, mb)                                        \
        }                                                                    \
    }

// Complex: the same loops on the interleaved real/imaginary parts, with the
// products spelled out (no library call for NaN-safe complex multiply).
#define TBP_CPLX_TRSM_BODY(R, rows)                                          \
    for (int j = 0; j < n; ++j) {                                            \
        R* bj = bb + 2 * j * ldb;                                            \
        R yr[kTrsmRows], yi[kTrsmRows];                                      \
        for (int v = 0; v < (rows); ++v) {                                   \
            yr[v] = bj[2 * v];                                               \
            yi[v] = bj[2 * v + 1];                                           \
        }                                                                    \
        for (int l = 0; l < j; ++l) {                                        \
            R const sr = ur[2 * (l + j * kTriBase)];                         \
            R const si = ur[2 * (l + j * kTriBase) + 1];                     \
            R const* bl = bb + 2 * l * ldb;                                  \
            for (int v = 0; v < (rows); ++v) {                               \
                R const xr = bl[2 * v];                                      \
                R const xi = bl[2 * v + 1];                                  \
                yr[v] -= xr * sr - xi * si;                                  \
                yi[v] -= xr * si + xi * sr;                                  \
            }                                                                \
        }                                                                    \
        R const rr = ur[2 * (j + j * kTriBase)];                             \
        R const ri = ur[2 * (j + j * kTriBase) + 1];                         \
        for (int v = 0; v < (rows); ++v) {                                   \
            bj[2 * v] = yr[v] * rr - yi[v] * ri;                             \
            bj[2 * v + 1] = yr[v] * ri + yi[v] * rr;                         \
        }                                                                    \
    }

#define TBP_DEFINE_CPLX_TRSM(R)                                              \
    TBP_KERNEL_CLONES                                                        \
    void trsm_right_upper(int m, int n, std::complex<R> const* u,            \
                          std::complex<R>* b, std::ptrdiff_t ldb) {          \
        R const* __restrict ur = reinterpret_cast<R const*>(u);              \
        R* __restrict br = reinterpret_cast<R*>(b);                          \
        int i0 = 0;                                                          \
        for (; i0 + kTrsmRows <= m; i0 += kTrsmRows) {                       \
            R* bb = br + 2 * i0;                                             \
            TBP_CPLX_TRSM_BODY(R, kTrsmRows)                                 \
        }                                                                    \
        if (i0 < m) {                                                        \
            int const mb = m - i0;                                           \
            R* bb = br + 2 * i0;                                             \
            TBP_CPLX_TRSM_BODY(R, mb)                                        \
        }                                                                    \
    }

TBP_DEFINE_REAL_TRSM(float)
TBP_DEFINE_REAL_TRSM(double)
TBP_DEFINE_CPLX_TRSM(float)
TBP_DEFINE_CPLX_TRSM(double)

#undef TBP_DEFINE_REAL_TRSM
#undef TBP_DEFINE_CPLX_TRSM
#undef TBP_REAL_TRSM_BODY
#undef TBP_CPLX_TRSM_BODY

}  // namespace tbp::blas::kernel

// Register-blocked MR x NR GEMM micro-kernels and the trsm base-case kernel
// (definitions in microkernel.cc, compiled separately at -O3 with runtime
// ISA dispatch).
//
// Contract: `a` is a packed A strip (kc steps of MR contiguous scalars),
// `b` a packed B strip (kc steps of NR scalars), both zero-padded to full
// MR/NR width by pack.hh. The kernel accumulates the full MR x NR product in
// registers and then updates C (column-major, leading dimension ldc):
//
//   C(0:MR, 0:NR) += alpha * sum_l a_l * b_l^T        (ukernel)
//   C(0:m,  0:n ) += ...   for m <= MR, n <= NR       (ukernel_fringe)
//
// Beta handling is NOT done here — the blocked driver pre-scales C once per
// call (beta == 0 stores zeros unconditionally, clearing NaN/Inf, matching
// the BLAS convention documented in blas/gemm.hh).
//
// Complex kernels take split real/imaginary packed planes (see pack.hh):
// each k-step of `a` is MR reals followed by MR imaginaries (2*MR scalars of
// the real type), likewise `b` with NR — so the inner loops run on
// contiguous real data and auto-vectorize like the real kernels.

#pragma once

#include <complex>
#include <cstddef>

namespace tbp::blas::kernel {

void ukernel(int kc, float alpha, float const* a, float const* b,
             float* c, int ldc);
void ukernel(int kc, double alpha, double const* a, double const* b,
             double* c, int ldc);
void ukernel(int kc, std::complex<float> alpha, float const* a,
             float const* b, std::complex<float>* c, int ldc);
void ukernel(int kc, std::complex<double> alpha, double const* a,
             double const* b, std::complex<double>* c, int ldc);

void ukernel_fringe(int kc, float alpha, float const* a, float const* b,
                    float* c, int ldc, int m, int n);
void ukernel_fringe(int kc, double alpha, double const* a, double const* b,
                    double* c, int ldc, int m, int n);
void ukernel_fringe(int kc, std::complex<float> alpha, float const* a,
                    float const* b, std::complex<float>* c, int ldc,
                    int m, int n);
void ukernel_fringe(int kc, std::complex<double> alpha, double const* a,
                    double const* b, std::complex<double>* c, int ldc,
                    int m, int n);

/// Base-case triangular solve with the right-hand side on the right:
/// X * U = B in place, for the m-by-n block B at `b` (column stride ldb,
/// which may be negative so that a caller can run the columns backwards),
/// n <= kTriBase. U is upper triangular, packed column-major with leading
/// dimension kTriBase, and holds the reciprocals of its diagonal, so the
/// solve never divides. Rows go in register blocks of 2 * kTriBase: each
/// column of a block is accumulated in registers over the columns before
/// it, then scaled and stored once.
void trsm_right_upper(int m, int n, float const* u, float* b,
                      std::ptrdiff_t ldb);
void trsm_right_upper(int m, int n, double const* u, double* b,
                      std::ptrdiff_t ldb);
void trsm_right_upper(int m, int n, std::complex<float> const* u,
                      std::complex<float>* b, std::ptrdiff_t ldb);
void trsm_right_upper(int m, int n, std::complex<double> const* u,
                      std::complex<double>* b, std::ptrdiff_t ldb);

}  // namespace tbp::blas::kernel

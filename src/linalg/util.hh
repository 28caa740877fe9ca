// Task-parallel element-wise operations and norms on TiledMatrix.
//
// Every function submits one task per tile (or per block row/column for
// reductions) to the runtime engine, declaring tile accesses so the
// dataflow scheduler can overlap these with surrounding operations.
// Norm reductions return scalars and therefore synchronize (engine.wait()),
// exactly as SLATE's norm calls do inside QDWH's convergence checks.

#pragma once

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "blas/util.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp::la {

/// B := A, tile-wise; tilings must match.
template <typename T>
void copy(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> B) {
    tbp_require(A.mt() == B.mt() && A.nt() == B.nt());
    for (int j = 0; j < A.nt(); ++j) {
        for (int i = 0; i < A.mt(); ++i) {
            tbp_require(A.tile_mb(i) == B.tile_mb(i) && A.tile_nb(j) == B.tile_nb(j));
            eng.submit("copy", {rt::read(A.tile_key(i, j)), rt::write(B.tile_key(i, j))},
                       [A, B, i, j] { blas::copy(A.tile(i, j), B.tile(i, j)); });
        }
    }
    eng.op_fence();
}

/// B := A element-wise across precisions (slamge/dlag2s-style), tile-wise;
/// tilings must match. Used by the precision ladders of QDWH and Zolo-PD to
/// move iterates between the native matrices and their low-precision
/// shadows. Charges no kernel flops: conversion is O(n^2)
/// traffic, accounted separately by the precision cost model.
template <typename TS, typename TD>
void convert_copy(rt::Engine& eng, TiledMatrix<TS> const& src,
                  TiledMatrix<TD> dst) {
    tbp_require(src.mt() == dst.mt() && src.nt() == dst.nt());
    for (int j = 0; j < src.nt(); ++j) {
        for (int i = 0; i < src.mt(); ++i) {
            tbp_require(src.tile_mb(i) == dst.tile_mb(i)
                        && src.tile_nb(j) == dst.tile_nb(j));
            eng.submit("convert",
                       {rt::read(src.tile_key(i, j)),
                        rt::write(dst.tile_key(i, j))},
                       [src, dst, i, j] {
                           auto s = src.tile(i, j);
                           auto d = dst.tile(i, j);
                           for (int c = 0; c < s.nb(); ++c)
                               for (int r = 0; r < s.mb(); ++r)
                                   d(r, c) = static_cast<TD>(s(r, c));
                       });
        }
    }
    eng.op_fence();
}

/// B := op(A) with op in {Trans, ConjTrans}; B must be A.n-by-A.m with the
/// transposed tiling.
template <typename T>
void transpose_copy(rt::Engine& eng, Op op, TiledMatrix<T> A,
                    TiledMatrix<T> B) {
    tbp_require(A.mt() == B.nt() && A.nt() == B.mt());
    for (int j = 0; j < A.nt(); ++j) {
        for (int i = 0; i < A.mt(); ++i) {
            eng.submit("transpose_copy",
                       {rt::read(A.tile_key(i, j)), rt::write(B.tile_key(j, i))},
                       [A, B, op, i, j] {
                           blas::transpose_copy(op, A.tile(i, j), B.tile(j, i));
                       });
        }
    }
    eng.op_fence();
}

/// A := alpha * A.
template <typename T>
void scale(rt::Engine& eng, T alpha, TiledMatrix<T> A) {
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            eng.submit("scale", {rt::readwrite(A.tile_key(i, j))},
                       [A, alpha, i, j] { blas::scale(alpha, A.tile(i, j)); });
    eng.op_fence();
}

/// B := alpha * A + beta * B (geadd).
template <typename T>
void add(rt::Engine& eng, T alpha, TiledMatrix<T> A, T beta, TiledMatrix<T> B) {
    tbp_require(A.mt() == B.mt() && A.nt() == B.nt());
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            eng.submit("add",
                       {rt::read(A.tile_key(i, j)), rt::readwrite(B.tile_key(i, j))},
                       [A, B, alpha, beta, i, j] {
                           blas::add(alpha, A.tile(i, j), beta, B.tile(i, j));
                       });
    eng.op_fence();
}

/// A := offdiag off the global diagonal, diag on it (laset). Assumes square
/// tiles on the diagonal when mt == nt tilings align (always true in TBP).
template <typename T>
void set(rt::Engine& eng, T offdiag, T diag, TiledMatrix<T> A) {
    for (int j = 0; j < A.nt(); ++j) {
        for (int i = 0; i < A.mt(); ++i) {
            eng.submit("set", {rt::write(A.tile_key(i, j))},
                       [A, offdiag, diag, i, j] {
                           blas::set(offdiag, (i == j) ? diag : offdiag, A.tile(i, j));
                       });
        }
    }
    eng.op_fence();
}

/// A := I (square view).
template <typename T>
void set_identity(rt::Engine& eng, TiledMatrix<T> A) {
    set(eng, T(0), T(1), A);
}

/// Column absolute sums of the whole matrix (the "local sums" step of
/// Algorithm 2, line 6). Returns a dense vector of length A.n().
template <typename T>
std::vector<real_t<T>> col_abs_sums(rt::Engine& eng, TiledMatrix<T> A) {
    using R = real_t<T>;
    std::vector<R> sums(static_cast<size_t>(A.n()), R(0));
    std::mutex mtx;
    std::int64_t col0 = 0;
    for (int j = 0; j < A.nt(); ++j) {
        // One task per block column: sum over its tiles, then merge.
        std::vector<rt::Access> acc;
        for (int i = 0; i < A.mt(); ++i)
            acc.push_back(rt::read(A.tile_key(i, j)));
        int const nbj = A.tile_nb(j);
        eng.submit("col_sums", std::move(acc), [A, j, nbj, col0, &sums, &mtx] {
            std::vector<R> local(static_cast<size_t>(nbj), R(0));
            for (int i = 0; i < A.mt(); ++i)
                blas::col_abs_sums(A.tile(i, j), local.data());
            std::lock_guard<std::mutex> lk(mtx);
            for (int c = 0; c < nbj; ++c)
                sums[static_cast<size_t>(col0 + c)] += local[static_cast<size_t>(c)];
        });
        col0 += nbj;
    }
    eng.wait();
    return sums;
}

/// ||A - s*B||_F without modifying either operand: one fused read-only task
/// per tile replaces the add + norm pair QDWH's convergence check used to
/// need (two full-matrix sweeps and a destroyed Aprev). Partials land in
/// fixed slots and are summed in a fixed order after the fence, preserving
/// the deterministic-reduction ordering of Norm::Fro. Synchronizing.
template <typename T>
real_t<T> diff_norm_fro(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> B,
                        real_t<T> s = real_t<T>(1)) {
    using R = real_t<T>;
    tbp_require(A.mt() == B.mt() && A.nt() == B.nt());
    std::vector<R> partial(
        static_cast<size_t>(A.mt()) * static_cast<size_t>(A.nt()), R(0));
    for (int j = 0; j < A.nt(); ++j) {
        for (int i = 0; i < A.mt(); ++i) {
            size_t const slot = static_cast<size_t>(j)
                                    * static_cast<size_t>(A.mt())
                                + static_cast<size_t>(i);
            eng.submit("diff_sum_sq",
                       {rt::read(A.tile_key(i, j)), rt::read(B.tile_key(i, j))},
                       [A, B, s, i, j, slot, &partial] {
                           partial[slot] =
                               blas::diff_sum_sq(s, A.tile(i, j), B.tile(i, j));
                       });
        }
    }
    eng.wait();
    R total(0);
    for (R p : partial)
        total += p;
    return std::sqrt(total);
}

/// Matrix norm. One/Inf/Fro/Max as in LAPACK's lange. Synchronizing.
template <typename T>
real_t<T> norm(rt::Engine& eng, Norm which, TiledMatrix<T> A) {
    using R = real_t<T>;
    switch (which) {
        case Norm::One: {
            auto sums = col_abs_sums(eng, A);
            R v(0);
            for (R s : sums)
                v = std::max(v, s);
            return v;
        }
        case Norm::Inf: {
            std::vector<R> sums(static_cast<size_t>(A.m()), R(0));
            std::mutex mtx;
            std::int64_t row0 = 0;
            for (int i = 0; i < A.mt(); ++i) {
                std::vector<rt::Access> acc;
                for (int j = 0; j < A.nt(); ++j)
                    acc.push_back(rt::read(A.tile_key(i, j)));
                int const mbi = A.tile_mb(i);
                eng.submit("row_sums", std::move(acc), [A, i, mbi, row0, &sums, &mtx] {
                    std::vector<R> local(static_cast<size_t>(mbi), R(0));
                    for (int j = 0; j < A.nt(); ++j)
                        blas::row_abs_sums(A.tile(i, j), local.data());
                    std::lock_guard<std::mutex> lk(mtx);
                    for (int r = 0; r < mbi; ++r)
                        sums[static_cast<size_t>(row0 + r)] += local[static_cast<size_t>(r)];
                });
                row0 += mbi;
            }
            eng.wait();
            R v(0);
            for (R s : sums)
                v = std::max(v, s);
            return v;
        }
        case Norm::Fro: {
            // Per-tile partials summed in a fixed order after the fence:
            // a shared accumulator would add in task-completion order, whose
            // rounding varies with the schedule (and the work-stealing
            // runtime makes completion order genuinely nondeterministic).
            std::vector<R> partial(
                static_cast<size_t>(A.mt()) * static_cast<size_t>(A.nt()), R(0));
            for (int j = 0; j < A.nt(); ++j) {
                for (int i = 0; i < A.mt(); ++i) {
                    size_t const slot = static_cast<size_t>(j)
                                            * static_cast<size_t>(A.mt())
                                        + static_cast<size_t>(i);
                    eng.submit("sum_sq", {rt::read(A.tile_key(i, j))},
                               [A, i, j, slot, &partial] {
                                   partial[slot] = blas::sum_sq(A.tile(i, j));
                               });
                }
            }
            eng.wait();
            R total(0);
            for (R s : partial)
                total += s;
            return std::sqrt(total);
        }
        case Norm::Max: {
            R v(0);
            std::mutex mtx;
            for (int j = 0; j < A.nt(); ++j) {
                for (int i = 0; i < A.mt(); ++i) {
                    eng.submit("norm_max", {rt::read(A.tile_key(i, j))},
                               [A, i, j, &v, &mtx] {
                                   R s = blas::norm_max(A.tile(i, j));
                                   std::lock_guard<std::mutex> lk(mtx);
                                   v = std::max(v, s);
                               });
                }
            }
            eng.wait();
            return v;
        }
    }
    return R(0);
}

}  // namespace tbp::la

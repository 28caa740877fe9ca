// Distributed-memory kernels over virtual ranks.
//
// A rank-local TiledMatrix (DistMatrix below) stores only the tiles a rank
// owns under the 2D block-cyclic map (ScaLAPACK/SLATE distribution); the
// routines below are SPMD functions run inside World::run. They exercise,
// with real message passing, the pieces the paper introduces as new
// distributed kernels:
//
//   dist_col_abs_sums - Algorithm 2 lines 5-8: local column sums via
//                       internal::norm, then MPI_Allreduce.
//   dist_gemmA        - Section 6.2: partial tile products where A's tiles
//                       live, parallel reduction to the (replicated) result.
//   dist_norm_fro     - local sum of squares + Allreduce.
//   dist_norm2est     - the full Algorithm 2 on the distributed matrix.
//
// Vectors are replicated on every rank (valid and standard for n-vectors in
// a 2D-distributed solver's norm estimator).

#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "blas/gemm.hh"
#include "blas/util.hh"
#include "comm/communicator.hh"
#include "common/types.hh"
#include "matrix/tile.hh"
#include "matrix/tiled_matrix.hh"

namespace tbp::comm {

/// The rank-local TiledMatrix of `comm`'s rank: an m-by-n matrix in nb
/// tiles on `grid` that stores only the tiles this rank owns. A
/// constructor only — the SPMD kernels take TiledMatrix. The grid may be
/// smaller than the communicator: 2.5D SUMMA builds matrices on the p x q
/// layer grid of a p*q*c world, so ranks >= grid.size() (the replication
/// layers) own no tiles.
template <typename T>
struct DistMatrix : TiledMatrix<T> {
    DistMatrix(Communicator& comm, std::int64_t m, std::int64_t n, int nb,
               Grid grid)
        : TiledMatrix<T>(m, n, nb, grid, comm.rank()) {
        tbp_require(grid.size() <= comm.size());
    }
};

/// Replicated dense image (column-major, m x n) of a distributed matrix on
/// every rank: each rank packs its local tiles in global (j, i) order and
/// one allgatherv exchanges them; every rank re-derives the others' pack
/// order from the ownership map. Collective — all ranks must call.
template <typename T>
std::vector<T> dist_gather(Communicator& comm, TiledMatrix<T> const& A) {
    std::vector<T> mine;
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j)) {
                auto t = A.tile(i, j);
                for (int cc = 0; cc < t.nb(); ++cc)
                    for (int rr = 0; rr < t.mb(); ++rr)
                        mine.push_back(t(rr, cc));
            }

    std::vector<std::size_t> counts;
    auto all = comm.allgatherv(mine, &counts);

    std::vector<std::size_t> off(counts.size() + 1, 0);
    for (std::size_t r = 0; r < counts.size(); ++r)
        off[r + 1] = off[r] + counts[r];

    auto const m = static_cast<std::size_t>(A.m());
    std::vector<T> dense(m * static_cast<std::size_t>(A.n()));
    std::vector<std::size_t> pos(counts.size(), 0);
    std::int64_t col0 = 0;
    for (int j = 0; j < A.nt(); ++j) {
        std::int64_t row0 = 0;
        for (int i = 0; i < A.mt(); ++i) {
            auto const r = static_cast<std::size_t>(A.owner_rank(i, j));
            T const* src = all.data() + off[r] + pos[r];
            for (int cc = 0; cc < A.tile_nb(j); ++cc)
                for (int rr = 0; rr < A.tile_mb(i); ++rr)
                    dense[static_cast<std::size_t>(row0 + rr)
                          + static_cast<std::size_t>(col0 + cc) * m] = *src++;
            pos[r] += static_cast<std::size_t>(A.tile_mb(i)) * A.tile_nb(j);
            row0 += A.tile_mb(i);
        }
        col0 += A.tile_nb(j);
    }
    return dense;
}

/// Global column absolute sums: local tile sums + Allreduce (Alg. 2, l. 5-8).
template <typename T>
std::vector<real_t<T>> dist_col_abs_sums(Communicator& comm,
                                         TiledMatrix<T> const& A) {
    using R = real_t<T>;
    std::vector<R> sums(static_cast<size_t>(A.n()), R(0));
    std::int64_t col0 = 0;
    for (int j = 0; j < A.nt(); ++j) {
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j))
                blas::col_abs_sums(A.tile(i, j), sums.data() + col0);
        col0 += A.tile_nb(j);
    }
    comm.allreduce_sum(sums);
    return sums;
}

/// ||A||_F over the distribution.
template <typename T>
real_t<T> dist_norm_fro(Communicator& comm, TiledMatrix<T> const& A) {
    using R = real_t<T>;
    R local(0);
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j))
                local += blas::sum_sq(A.tile(i, j));
    return std::sqrt(comm.allreduce_sum_scalar(local));
}

/// y := op(A) x with x, y replicated vectors (Section 6.2's gemmA shape):
/// each rank multiplies its local tiles against the matching x block and
/// the partial y's are combined with a single Allreduce.
template <typename T>
void dist_gemmA(Communicator& comm, Op opA, TiledMatrix<T> const& A,
                std::vector<T> const& x, std::vector<T>& y) {
    std::int64_t const ny = (opA == Op::NoTrans) ? A.m() : A.n();
    tbp_require(static_cast<std::int64_t>(x.size())
                == ((opA == Op::NoTrans) ? A.n() : A.m()));
    y.assign(static_cast<size_t>(ny), T(0));

    std::int64_t row0 = 0;
    for (int i = 0; i < A.mt(); ++i) {
        std::int64_t col0 = 0;
        for (int j = 0; j < A.nt(); ++j) {
            if (A.is_local(i, j)) {
                auto t = A.tile(i, j);
                if (opA == Op::NoTrans) {
                    // y[row0..] += t * x[col0..]
                    for (int c = 0; c < t.nb(); ++c) {
                        T const xc = x[static_cast<size_t>(col0 + c)];
                        for (int r = 0; r < t.mb(); ++r)
                            y[static_cast<size_t>(row0 + r)] += t(r, c) * xc;
                    }
                } else {
                    // y[col0..] += t^H * x[row0..]
                    for (int c = 0; c < t.nb(); ++c) {
                        T acc(0);
                        for (int r = 0; r < t.mb(); ++r)
                            acc += conj_val(t(r, c))
                                   * x[static_cast<size_t>(row0 + r)];
                        y[static_cast<size_t>(col0 + c)] += acc;
                    }
                }
            }
            col0 += A.tile_nb(j);
        }
        row0 += A.tile_mb(i);
    }
    comm.allreduce_sum(y);
}

/// Algorithm 2 on the distributed matrix; every rank returns the same
/// estimate of ||A||_2.
template <typename T>
real_t<T> dist_norm2est(Communicator& comm, TiledMatrix<T> const& A,
                        double tol = 0.1, int max_iter = 100) {
    using R = real_t<T>;
    auto sums = dist_col_abs_sums(comm, A);
    std::vector<T> x(sums.size());
    for (size_t i = 0; i < sums.size(); ++i)
        x[i] = from_real<T>(sums[i]);

    auto nrm2 = [](std::vector<T> const& v) {
        R s(0);
        for (auto const& e : v)
            s += abs_sq(e);
        return std::sqrt(s);
    };

    R e = nrm2(x);
    if (e == R(0))
        return R(0);
    R e0(0), normX = e;
    std::vector<T> ax;
    int iter = 0;
    while (std::abs(e - e0) > tol * e && iter < max_iter) {
        e0 = e;
        for (auto& v : x)
            v = v * from_real<T>(R(1) / normX);
        dist_gemmA(comm, Op::NoTrans, A, x, ax);
        dist_gemmA(comm, Op::ConjTrans, A, ax, x);
        normX = nrm2(x);
        R const normAX = nrm2(ax);
        if (normAX == R(0) || normX == R(0))
            return e0;
        e = normX / normAX;
        ++iter;
    }
    return e;
}

}  // namespace tbp::comm

// SPMD distributed tiled algorithms over virtual ranks.
//
// These run the classic 2D block-cyclic communication patterns with real
// (in-process) messages: the row/column tile broadcasts and the
// double-buffered step pipeline the SUMMA gemm (comm/dist_summa25.hh) is
// built from, right-looking distributed Cholesky with panel broadcasts,
// Hermitian rank-k update, and the right-side triangular solves QDWH's
// Cholesky iteration needs (comm/dist_qdwh.hh composes them, with the
// distributed QR of comm/dist_qr.hh, into the distributed polar
// decomposition). They validate that the distribution logic (who owns what,
// who sends what to whom) is exactly ScaLAPACK/SLATE's.
//
// Messaging convention: sends are buffered (never block), receives block;
// every rank executes the same loop nest, so matching is by (src, tag) with
// tags unique per (operation step, tile). Tile payloads are raw
// column-major buffers.

#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "blas/factor.hh"
#include "blas/gemm.hh"
#include "blas/level3.hh"
#include "blas/util.hh"
#include "comm/dist.hh"
#include "common/precision.hh"
#include "linalg/summa_step.hh"

namespace tbp::comm {

namespace detail {

/// Staged remote tile: owned storage + view.
template <typename T>
struct Staged {
    std::vector<T> buf;
    int mb = 0, nb = 0;
    Tile<T> tile() { return Tile<T>(buf.data(), mb, nb, mb); }
};

/// Pack a tile view into a contiguous column-major buffer.
template <typename T>
std::vector<T> pack_tile(Tile<T> t) {
    std::vector<T> buf(static_cast<size_t>(t.mb()) * t.nb());
    for (int j = 0; j < t.nb(); ++j)
        for (int i = 0; i < t.mb(); ++i)
            buf[static_cast<size_t>(i) + static_cast<size_t>(j) * t.mb()] = t(i, j);
    return buf;
}

/// Send tile data to a rank (buffered, non-blocking in this transport).
template <typename T>
void send_tile(Communicator& c, Tile<T> t, int dst, int tag) {
    auto buf = pack_tile(t);
    c.send(buf, dst, tag);
}

template <typename T>
Staged<T> recv_tile(Communicator& c, int mb, int nb, int src, int tag) {
    Staged<T> s;
    s.mb = mb;
    s.nb = nb;
    s.buf.resize(static_cast<size_t>(mb) * nb);
    c.recv(s.buf, src, tag);
    return s;
}

}  // namespace detail

/// Ranks owning any tile in block row i (they share the grid row i % p).
inline std::vector<int> row_group(Grid g, int i) {
    std::vector<int> out;
    for (int col = 0; col < g.q; ++col)
        out.push_back((i % g.p) * g.q + col);
    return out;
}

/// Ranks owning any tile in block column j (grid column j % q).
inline std::vector<int> col_group(Grid g, int j) {
    std::vector<int> out;
    for (int row = 0; row < g.p; ++row)
        out.push_back(row * g.q + j % g.q);
    return out;
}

/// Broadcast tile (i, j) of A from its owner to `group`; returns a view of
/// the tile (local or staged). Every rank in `group` (and the owner) must
/// call this with the same arguments.
template <typename T>
detail::Staged<T> stage_tile(Communicator& c, DistMatrix<T>& A, int i, int j,
                             std::vector<int> const& group, int tag) {
    int const owner = A.owner(i, j);
    detail::Staged<T> s;
    if (c.rank() == owner) {
        auto t = A.tile(i, j);
        for (int r : group)
            if (r != owner)
                detail::send_tile(c, t, r, tag);
        // Local copy keeps the return type uniform.
        s.mb = t.mb();
        s.nb = t.nb();
        s.buf.resize(static_cast<size_t>(s.mb) * s.nb);
        for (int jj = 0; jj < s.nb; ++jj)
            for (int ii = 0; ii < s.mb; ++ii)
                s.buf[static_cast<size_t>(ii) + static_cast<size_t>(jj) * s.mb] =
                    t(ii, jj);
    } else {
        s = detail::recv_tile<T>(c, A.tile_mb(i), A.tile_nb(j), owner, tag);
    }
    return s;
}

inline bool in_group(std::vector<int> const& g, int r) {
    for (int x : g)
        if (x == r)
            return true;
    return false;
}

namespace detail {

/// In-flight staged tile: the nonblocking counterpart of stage_tile.
/// Owner ranks complete at begin (sends are buffered); receivers carry a
/// posted irecv that ready() resolves. The source tile must stay unmodified
/// between begin and the matching compute (true for the SUMMA operands:
/// only C is written while A/B panels are in flight).
template <typename T>
struct PendingStage {
    Staged<T> s;
    Request req;          // complete for the owner / local copies
    bool needed = false;  // this rank consumes the tile

    PendingStage() = default;
    PendingStage(PendingStage&&) = default;
    PendingStage(PendingStage const&) = delete;
    PendingStage& operator=(PendingStage const&) = delete;

    // Move assignment must drain the target's own irecv before its buffer
    // is freed by the vector move — a defaulted member-wise move would
    // leave the transport writing into freed memory. drain() (not wait())
    // so a transfer error on an overwritten stage is absorbed into the
    // recovery counters instead of throwing out of an assignment.
    PendingStage& operator=(PendingStage&& o) {
        if (this != &o) {
            req.drain();
            s = std::move(o.s);
            req = std::move(o.req);
            needed = o.needed;
        }
        return *this;
    }

    // The posted irecv targets s.buf, so it must complete before the
    // buffer dies — even on ranks that staged a tile they end up not
    // computing with (group membership is per block row/column, not per
    // local tile). The matching send is unconditional, so this wait
    // terminates: immediately in the fault-free engine, and within the
    // retry deadline in fault mode, where drain() absorbs a failed
    // transfer (noexcept — destructors must not throw during unwind).
    ~PendingStage() { req.drain(); }

    // The consuming path: propagates a dimensioned CommError if the staged
    // transfer ultimately failed, so compute never runs on garbage — this
    // is the "detect, report, re-drive" half of the guard (re-driving
    // happened inside wait()'s timed recovery loop).
    Staged<T>& ready() {
        req.wait();
        return s;
    }
};

}  // namespace detail

/// Nonblocking stage of tile (i, j) of A from its owner to `group`: the
/// owner isends to every group member and keeps a packed local copy; group
/// members post an irecv. Call pattern matches stage_tile (same ranks, same
/// tag); consume via .ready().
template <typename T>
detail::PendingStage<T> stage_tile_begin(Communicator& c, DistMatrix<T>& A,
                                         int i, int j,
                                         std::vector<int> const& group,
                                         int tag) {
    int const owner = A.owner(i, j);
    detail::PendingStage<T> p;
    p.needed = in_group(group, c.rank());
    if (c.rank() == owner) {
        auto t = A.tile(i, j);
        p.s.mb = t.mb();
        p.s.nb = t.nb();
        p.s.buf = detail::pack_tile(t);
        for (int r : group)
            if (r != owner)
                c.isend(p.s.buf.data(), p.s.buf.size(), r, tag);
    } else if (p.needed) {
        p.s.mb = A.tile_mb(i);
        p.s.nb = A.tile_nb(j);
        p.s.buf.resize(static_cast<size_t>(p.s.mb) * p.s.nb);
        p.req = c.irecv(p.s.buf.data(), p.s.buf.size(), owner, tag);
    }
    return p;
}

namespace detail {

/// Double-buffered step pipeline shared by every staged step loop:
/// stage(l) posts step l's panels (stage_tile_begin) and returns them,
/// compute(l, staged) consumes them. Step l+1 is posted before step l
/// computes, so its broadcasts overlap step l's kernels; the staged operands
/// must therefore be read-only across the loop.
template <typename Stage, typename Compute>
void pipelined_steps(int n, Stage&& stage, Compute&& compute) {
    using Step = decltype(stage(0));
    Step cur;
    if (n > 0)
        cur = stage(0);
    for (int l = 0; l < n; ++l) {
        Step next;
        if (l + 1 < n)
            next = stage(l + 1);
        compute(l, cur);
        cur = std::move(next);
    }
}

}  // namespace detail

/// Distributed Hermitian rank-k update, lower triangle:
///   C := alpha A^H A + beta C, A kt x nt tiles, C nt x nt.
template <typename T>
void dist_herk(Communicator& c, Grid g, real_t<T> alpha, DistMatrix<T>& A,
               real_t<T> beta, DistMatrix<T>& C) {
    int const nt = C.nt(), kt = A.mt();
    tbp_require(C.mt() == nt && A.nt() == nt);

    for (int j = 0; j < nt; ++j)
        for (int i = j; i < nt; ++i)
            if (C.is_local(i, j))
                blas::scale(from_real<T>(beta), C.tile(i, j));

    // C(i, j) += alpha A(l, i)^H A(l, j): tile A(l, i) is needed by the
    // owners of block row i (as the conj-transposed operand) and tile
    // A(l, j) by the owners of block column j. A is read-only here, so the
    // next step's panel broadcast can overlap this step's updates.
    struct Step {
        std::map<int, detail::PendingStage<T>> row, col;
    };
    auto stage_step = [&](int l) {
        int const base = (1 << 21) + l * (2 * nt);
        Step st;
        for (int i = 0; i < nt; ++i) {
            auto grp = row_group(g, i);
            bool const need = in_group(grp, c.rank());
            if (need || A.owner(l, i) == c.rank()) {
                auto p = stage_tile_begin(c, A, l, i, grp, base + i);
                if (need)
                    st.row[i] = std::move(p);
            }
        }
        for (int j = 0; j < nt; ++j) {
            auto grp = col_group(g, j);
            bool const need = in_group(grp, c.rank());
            if (need || A.owner(l, j) == c.rank()) {
                auto p = stage_tile_begin(c, A, l, j, grp, base + nt + j);
                if (need)
                    st.col[j] = std::move(p);
            }
        }
        return st;
    };

    detail::pipelined_steps(kt, stage_step, [&](int, Step& cur) {
        for (int j = 0; j < nt; ++j) {
            for (int i = j; i < nt; ++i) {
                if (!C.is_local(i, j))
                    continue;
                if (i == j)
                    blas::herk(Uplo::Lower, Op::ConjTrans, alpha,
                               cur.col[j].ready().tile(), real_t<T>(1),
                               C.tile(i, j));
                else
                    blas::gemm(Op::ConjTrans, Op::NoTrans, from_real<T>(alpha),
                               cur.row[i].ready().tile(),
                               cur.col[j].ready().tile(), T(1), C.tile(i, j));
            }
        }
    });
}

/// Distributed right-looking Cholesky, lower triangle: A = L L^H in place.
template <typename T>
void dist_potrf(Communicator& c, Grid g, DistMatrix<T>& A) {
    int const nt = A.nt();
    tbp_require(A.mt() == nt);

    int tag = 1 << 22;
    for (int k = 0; k < nt; ++k) {
        // Factor the diagonal tile; broadcast L(k,k) down its column group.
        if (A.is_local(k, k))
            blas::potrf(Uplo::Lower, A.tile(k, k));
        auto ck_grp = col_group(g, k);
        detail::Staged<T> lkk;
        if (in_group(ck_grp, c.rank()) || A.owner(k, k) == c.rank()) {
            auto s = stage_tile(c, A, k, k, ck_grp, tag);
            if (in_group(ck_grp, c.rank()))
                lkk = std::move(s);
        }
        ++tag;

        // Panel solves.
        for (int i = k + 1; i < nt; ++i)
            if (A.is_local(i, k))
                blas::trsm(Side::Right, Uplo::Lower, Op::ConjTrans,
                           Diag::NonUnit, T(1), lkk.tile(), A.tile(i, k));

        // Broadcast panel tiles: A(i,k) to row group i and (as the mirrored
        // operand) to column group i.
        std::map<int, detail::Staged<T>> row_stage, col_stage;
        for (int i = k + 1; i < nt; ++i) {
            auto rgrp = row_group(g, i);
            if (in_group(rgrp, c.rank()) || A.owner(i, k) == c.rank()) {
                auto s = stage_tile(c, A, i, k, rgrp, tag + 2 * i);
                if (in_group(rgrp, c.rank()))
                    row_stage[i] = std::move(s);
            }
            auto cgrp = col_group(g, i);
            if (in_group(cgrp, c.rank()) || A.owner(i, k) == c.rank()) {
                auto s = stage_tile(c, A, i, k, cgrp, tag + 2 * i + 1);
                if (in_group(cgrp, c.rank()))
                    col_stage[i] = std::move(s);
            }
        }
        tag += 2 * nt;

        // Trailing update.
        for (int j = k + 1; j < nt; ++j) {
            for (int i = j; i < nt; ++i) {
                if (!A.is_local(i, j))
                    continue;
                if (i == j)
                    blas::herk(Uplo::Lower, Op::NoTrans, real_t<T>(-1),
                               col_stage[j].tile(), real_t<T>(1), A.tile(i, j));
                else
                    blas::gemm(Op::NoTrans, Op::ConjTrans, T(-1),
                               row_stage[i].tile(), col_stage[j].tile(), T(1),
                               A.tile(i, j));
            }
        }
    }
}

/// Distributed right-side triangular solve with the Cholesky factor:
///   op == ConjTrans: X := X L^{-H};  op == NoTrans: X := X L^{-1}.
/// L is the lower triangle of Z (nt x nt), X is mt x nt tiles.
template <typename T>
void dist_trsm_right_lower(Communicator& c, Grid g, Op op, DistMatrix<T>& Z,
                           DistMatrix<T>& X) {
    int const mt = X.mt(), nt = X.nt();
    tbp_require(Z.mt() == nt && Z.nt() == nt);
    bool const eff_upper = (op != Op::NoTrans);  // L^H is upper

    int tag = 1 << 23;
    auto solve_col = [&](int k) {
        auto grp = col_group(g, k);
        detail::Staged<T> lkk;
        if (in_group(grp, c.rank()) || Z.owner(k, k) == c.rank()) {
            auto s = stage_tile(c, Z, k, k, grp, tag);
            if (in_group(grp, c.rank()))
                lkk = std::move(s);
        }
        ++tag;
        for (int i = 0; i < mt; ++i)
            if (X.is_local(i, k))
                blas::trsm(Side::Right, Uplo::Lower, op, Diag::NonUnit, T(1),
                           lkk.tile(), X.tile(i, k));
        // Broadcast solved column k along process rows for the updates.
        std::map<int, detail::Staged<T>> xk;
        for (int i = 0; i < mt; ++i) {
            auto rgrp = row_group(g, i);
            if (in_group(rgrp, c.rank()) || X.owner(i, k) == c.rank()) {
                auto s = stage_tile(c, X, i, k, rgrp, tag + i);
                if (in_group(rgrp, c.rank()))
                    xk[i] = std::move(s);
            }
        }
        tag += mt;
        return xk;
    };

    if (eff_upper) {
        // X L^H = B: ascending columns; B(:,j) -= X(:,k) (L^H)(k,j)
        // with (L^H)(k,j) = L(j,k)^H, j > k.
        for (int k = 0; k < nt; ++k) {
            auto xk = solve_col(k);
            for (int j = k + 1; j < nt; ++j) {
                auto cgrp = col_group(g, j);
                detail::Staged<T> ljk;
                bool const need = in_group(cgrp, c.rank());
                if (need || Z.owner(j, k) == c.rank()) {
                    auto s = stage_tile(c, Z, j, k, cgrp, tag);
                    if (need)
                        ljk = std::move(s);
                }
                ++tag;
                for (int i = 0; i < mt; ++i)
                    if (X.is_local(i, j))
                        blas::gemm(Op::NoTrans, Op::ConjTrans, T(-1),
                                   xk[i].tile(), ljk.tile(), T(1), X.tile(i, j));
            }
        }
    } else {
        // X L = B: descending columns; B(:,j) -= X(:,k) L(k,j), k > j.
        for (int k = nt - 1; k >= 0; --k) {
            auto xk = solve_col(k);
            for (int j = 0; j < k; ++j) {
                auto cgrp = col_group(g, j);
                detail::Staged<T> lkj;
                bool const need = in_group(cgrp, c.rank());
                if (need || Z.owner(k, j) == c.rank()) {
                    auto s = stage_tile(c, Z, k, j, cgrp, tag);
                    if (need)
                        lkj = std::move(s);
                }
                ++tag;
                for (int i = 0; i < mt; ++i)
                    if (X.is_local(i, j))
                        blas::gemm(Op::NoTrans, Op::NoTrans, T(-1),
                                   xk[i].tile(), lkj.tile(), T(1), X.tile(i, j));
            }
        }
    }
}

/// Element-wise distributed update B := alpha A + beta B (conforming).
template <typename T>
void dist_add(DistMatrix<T>& A, T alpha, T beta, DistMatrix<T>& B) {
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j))
                blas::add(alpha, A.tile(i, j), beta, B.tile(i, j));
}

template <typename T>
void dist_copy(DistMatrix<T>& A, DistMatrix<T>& B) {
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j))
                blas::copy(A.tile(i, j), B.tile(i, j));
}

template <typename T>
void dist_set_identity(DistMatrix<T>& A, real_t<T> diag = 1) {
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j))
                blas::set(T(0), i == j ? from_real<T>(diag) : T(0), A.tile(i, j));
}

/// Local element-wise precision conversion between conforming distributed
/// matrices on the same grid (identical ownership, no communication).
template <typename TS, typename TD>
void dist_convert(DistMatrix<TS>& A, DistMatrix<TD>& B) {
    tbp_require(A.mt() == B.mt() && A.nt() == B.nt());
    for (int j = 0; j < A.nt(); ++j) {
        for (int i = 0; i < A.mt(); ++i) {
            if (!A.is_local(i, j))
                continue;
            auto s = A.tile(i, j);
            auto d = B.tile(i, j);
            for (int c = 0; c < s.nb(); ++c)
                for (int r = 0; r < s.mb(); ++r)
                    d(r, c) = static_cast<TD>(s(r, c));
        }
    }
}

}  // namespace tbp::comm

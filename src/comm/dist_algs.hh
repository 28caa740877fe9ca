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
#include <utility>
#include <vector>

#include "blas/factor.hh"
#include "blas/gemm.hh"
#include "blas/level3.hh"
#include "blas/util.hh"
#include "comm/dist.hh"
#include "common/precision.hh"

namespace tbp::comm {

namespace detail {

/// Received tile: owned storage + view.
template <typename T>
struct Staged {
    std::vector<T> buf;
    int mb = 0, nb = 0;
    Tile<T> tile() { return Tile<T>(buf.data(), mb, nb, mb); }
};

/// Point-to-point send of a contiguous tile (matrix tiles and received
/// tiles are; buffered, never blocks in this transport).
template <typename T>
void send_tile(Communicator& c, Tile<T> t, int dst, int tag) {
    tbp_require(t.ld() == t.mb());
    c.send(t.data(), static_cast<size_t>(t.mb()) * t.nb(), dst, tag);
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
        out.push_back(g.owner(i, col));
    return out;
}

/// Ranks owning any tile in block column j (grid column j % q).
inline std::vector<int> col_group(Grid g, int j) {
    std::vector<int> out;
    for (int row = 0; row < g.p; ++row)
        out.push_back(g.owner(row, j));
    return out;
}

inline bool in_group(std::vector<int> const& g, int r) {
    for (int x : g)
        if (x == r)
            return true;
    return false;
}

namespace detail {

/// A tile broadcast in flight (see stage()). Group members other than the
/// holder carry a posted irecv into their own buffer; the holder's view is
/// the source tile itself, which must stay unmodified until every consumer
/// has used it (true for every staged operand here: the kernels stage tiles
/// they only read afterwards). Ranks outside the group hold nothing.
template <typename T>
struct PendingStage {
    std::vector<T> buf;  // receive buffer (members other than the holder)
    Tile<T> view;        // the staged tile; empty outside the group
    Request req;         // complete on the holder and outside the group

    PendingStage() = default;
    // The moved vector keeps its heap buffer, so view and the posted irecv
    // stay valid.
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
            buf = std::move(o.buf);
            view = o.view;
            req = std::move(o.req);
        }
        return *this;
    }

    // The posted irecv targets buf, so it must complete before the buffer
    // dies — even on ranks that staged a tile they end up not computing
    // with (group membership is per block row/column, not per local tile).
    // The matching send is unconditional, so this wait terminates:
    // immediately in the fault-free engine, and within the retry deadline
    // in fault mode, where drain() absorbs a failed transfer (noexcept —
    // destructors must not throw during unwind).
    ~PendingStage() { req.drain(); }

    // The consuming path: propagates a dimensioned CommError if the staged
    // transfer ultimately failed, so compute never runs on garbage — this
    // is the "detect, report, re-drive" half of the guard (re-driving
    // happened inside wait()'s timed recovery loop).
    Tile<T> ready() {
        req.wait();
        return view;
    }
};

}  // namespace detail

/// The one tile-staging call: broadcast tile `t` from rank `holder` to the
/// ranks of `group` under `tag`. The holder and every group member call it
/// with the same holder, group and tag; `t` carries the data on the holder
/// and only the shape elsewhere. The holder sends to every other member
/// (buffered, in group order) and, if it is a member itself, stages a view
/// of `t`; the other members post a receive. Blocking users call .ready()
/// at once; pipelined ones (detail::pipelined_steps) later.
template <typename T>
detail::PendingStage<T> stage(Communicator& c, Tile<T> t, int holder,
                              std::vector<int> const& group, int tag) {
    detail::PendingStage<T> p;
    bool const member = in_group(group, c.rank());
    if (c.rank() == holder) {
        for (int r : group)
            if (r != holder)
                detail::send_tile(c, t, r, tag);
        if (member)
            p.view = t;
    } else if (member) {
        p.buf.resize(static_cast<size_t>(t.mb()) * t.nb());
        p.view = Tile<T>(p.buf.data(), t.mb(), t.nb(), t.mb());
        p.req = c.irecv(p.buf.data(), p.buf.size(), holder, tag);
    }
    return p;
}

namespace detail {

/// Tile (i, j) of A where this rank stores it, else only its shape.
template <typename T>
Tile<T> tile_or_shape(TiledMatrix<T> const& A, int i, int j) {
    return A.is_local(i, j)
               ? A.tile(i, j)
               : Tile<T>(nullptr, A.tile_mb(i), A.tile_nb(j), A.tile_mb(i));
}

}  // namespace detail

/// stage() of tile (i, j) of A from its owner.
template <typename T>
detail::PendingStage<T> stage(Communicator& c, TiledMatrix<T> const& A, int i,
                              int j, std::vector<int> const& group, int tag) {
    return stage(c, detail::tile_or_shape(A, i, j), A.owner_rank(i, j), group,
                 tag);
}

namespace detail {

/// Double-buffered step pipeline shared by every staged step loop:
/// stage(l) posts step l's panels and returns them, compute(l, staged)
/// consumes them. Step l+1 is posted before step l computes, so its
/// broadcasts overlap step l's kernels; the staged operands must therefore
/// be read-only across the loop.
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
void dist_herk(Communicator& c, Grid g, real_t<T> alpha, TiledMatrix<T> A,
               real_t<T> beta, TiledMatrix<T> C) {
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
    using Panel = std::vector<detail::PendingStage<T>>;
    struct Step {
        Panel row, col;
    };
    auto stage_step = [&](int l) {
        int const base = (1 << 21) + l * (2 * nt);
        Step st{Panel(nt), Panel(nt)};
        for (int i = 0; i < nt; ++i)
            st.row[i] = stage(c, A, l, i, row_group(g, i), base + i);
        for (int j = 0; j < nt; ++j)
            st.col[j] = stage(c, A, l, j, col_group(g, j), base + nt + j);
        return st;
    };

    detail::pipelined_steps(kt, stage_step, [&](int, Step& cur) {
        for (int j = 0; j < nt; ++j) {
            for (int i = j; i < nt; ++i) {
                if (!C.is_local(i, j))
                    continue;
                if (i == j)
                    blas::herk(Uplo::Lower, Op::ConjTrans, alpha,
                               cur.col[j].ready(), real_t<T>(1), C.tile(i, j));
                else
                    blas::gemm(Op::ConjTrans, Op::NoTrans, from_real<T>(alpha),
                               cur.row[i].ready(), cur.col[j].ready(), T(1),
                               C.tile(i, j));
            }
        }
    });
}

/// Distributed right-looking Cholesky, lower triangle: A = L L^H in place.
template <typename T>
void dist_potrf(Communicator& c, Grid g, TiledMatrix<T> A) {
    int const nt = A.nt();
    tbp_require(A.mt() == nt);

    int tag = 1 << 22;
    for (int k = 0; k < nt; ++k) {
        // Factor the diagonal tile; broadcast L(k,k) down its column group.
        if (A.is_local(k, k))
            blas::potrf(Uplo::Lower, A.tile(k, k));
        auto lkk = stage(c, A, k, k, col_group(g, k), tag++);
        lkk.ready();

        // Panel solves.
        for (int i = k + 1; i < nt; ++i)
            if (A.is_local(i, k))
                blas::trsm(Side::Right, Uplo::Lower, Op::ConjTrans,
                           Diag::NonUnit, T(1), lkk.view, A.tile(i, k));

        // Broadcast panel tiles: A(i,k) to row group i and (as the mirrored
        // operand) to column group i.
        std::vector<detail::PendingStage<T>> row(nt), col(nt);
        for (int i = k + 1; i < nt; ++i) {
            row[i] = stage(c, A, i, k, row_group(g, i), tag + 2 * i);
            row[i].ready();
            col[i] = stage(c, A, i, k, col_group(g, i), tag + 2 * i + 1);
            col[i].ready();
        }
        tag += 2 * nt;

        // Trailing update.
        for (int j = k + 1; j < nt; ++j) {
            for (int i = j; i < nt; ++i) {
                if (!A.is_local(i, j))
                    continue;
                if (i == j)
                    blas::herk(Uplo::Lower, Op::NoTrans, real_t<T>(-1),
                               col[j].view, real_t<T>(1), A.tile(i, j));
                else
                    blas::gemm(Op::NoTrans, Op::ConjTrans, T(-1), row[i].view,
                               col[j].view, T(1), A.tile(i, j));
            }
        }
    }
}

/// Distributed right-side triangular solve with the Cholesky factor:
///   op == ConjTrans: X := X L^{-H};  op == NoTrans: X := X L^{-1}.
/// L is the lower triangle of Z (nt x nt), X is mt x nt tiles.
template <typename T>
void dist_trsm_right_lower(Communicator& c, Grid g, Op op, TiledMatrix<T> Z,
                           TiledMatrix<T> X) {
    int const mt = X.mt(), nt = X.nt();
    tbp_require(Z.mt() == nt && Z.nt() == nt);
    // X L^H = B sweeps columns ascending, B(:,j) -= X(:,k) L(j,k)^H for
    // j > k; X L = B sweeps descending, B(:,j) -= X(:,k) L(k,j) for j < k.
    bool const ascending = (op != Op::NoTrans);

    int tag = 1 << 23;
    for (int s = 0; s < nt; ++s) {
        int const k = ascending ? s : nt - 1 - s;
        auto lkk = stage(c, Z, k, k, col_group(g, k), tag++);
        lkk.ready();
        for (int i = 0; i < mt; ++i)
            if (X.is_local(i, k))
                blas::trsm(Side::Right, Uplo::Lower, op, Diag::NonUnit, T(1),
                           lkk.view, X.tile(i, k));
        // Broadcast solved column k along process rows for the updates.
        std::vector<detail::PendingStage<T>> xk(mt);
        for (int i = 0; i < mt; ++i) {
            xk[i] = stage(c, X, i, k, row_group(g, i), tag + i);
            xk[i].ready();
        }
        tag += mt;

        int const j0 = ascending ? k + 1 : 0, j1 = ascending ? nt : k;
        for (int j = j0; j < j1; ++j) {
            auto l = ascending ? stage(c, Z, j, k, col_group(g, j), tag++)
                               : stage(c, Z, k, j, col_group(g, j), tag++);
            l.ready();
            for (int i = 0; i < mt; ++i)
                if (X.is_local(i, j))
                    blas::gemm(Op::NoTrans, op, T(-1), xk[i].view, l.view, T(1),
                               X.tile(i, j));
        }
    }
}

/// Element-wise distributed update B := alpha A + beta B (conforming).
template <typename T>
void dist_add(TiledMatrix<T> const& A, T alpha, T beta,
              TiledMatrix<T> const& B) {
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j))
                blas::add(alpha, A.tile(i, j), beta, B.tile(i, j));
}

template <typename T>
void dist_copy(TiledMatrix<T> const& A, TiledMatrix<T> const& B) {
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j))
                blas::copy(A.tile(i, j), B.tile(i, j));
}

template <typename T>
void dist_scale(T alpha, TiledMatrix<T> const& A) {
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j))
                blas::scale(alpha, A.tile(i, j));
}

template <typename T>
void dist_set_identity(TiledMatrix<T> const& A, real_t<T> diag = 1) {
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j))
                blas::set(T(0), i == j ? from_real<T>(diag) : T(0), A.tile(i, j));
}

/// Local element-wise precision conversion between conforming distributed
/// matrices on the same grid (identical ownership, no communication).
template <typename TS, typename TD>
void dist_convert(TiledMatrix<TS> const& A, TiledMatrix<TD> const& B) {
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

// Distributed flat-tree tile QR over virtual ranks (SPMD, real messages) —
// the communication-avoiding factorization behind QDWH's QR-based iteration,
// in its message-passing form:
//
//   - panel k: geqrt at the owner of (k, k); the TS chain folds each tile
//     below into R, relaying the evolving R tile down the panel owners;
//   - the V/T of every reflector block is broadcast along the process rows
//     that hold the trailing tiles;
//   - tsmqr couples two block rows (k and i): when their owners differ, the
//     row-k tile travels to the row-i owner and back (the classic
//     ScaLAPACK-style pairwise update exchange).
//
// dist_ungqr applies the recorded reflectors in reverse to [I; 0], and
// dist_qdwh composes these with the Cholesky kernels of dist_algs.hh into a
// complete distributed QDWH (both iteration branches).
//
// Determinism: the tile kernels see the same values in the same order as
// the shared-memory path, so the factors agree bit-for-bit — tested.

#pragma once

#include "blas/householder.hh"
#include "comm/dist_algs.hh"

namespace tbp::comm {

namespace detail {

/// Exchange-update: run fn on `runner`; tile (i, j) of A is shipped from its
/// owner to `runner` first and shipped back after, if they differ.
/// Both ranks (and only they) must call this.
template <typename T, typename Fn>
void borrow_tile(Communicator& c, TiledMatrix<T> const& A, int i, int j,
                 int runner, int tag, Fn const& fn) {
    int const owner = A.owner_rank(i, j);
    if (owner == runner) {
        if (c.rank() == runner)
            fn(A.tile(i, j));
        return;
    }
    if (c.rank() == owner) {
        Tile<T> t = A.tile(i, j);
        detail::send_tile(c, t, runner, tag);
        c.recv(t.data(), static_cast<size_t>(t.mb()) * t.nb(), runner, tag + 1);
    } else if (c.rank() == runner) {
        auto st = detail::recv_tile<T>(c, A.tile_mb(i), A.tile_nb(j), owner, tag);
        fn(st.tile());
        detail::send_tile(c, st.tile(), owner, tag + 1);
    }
}

}  // namespace detail

/// Distributed flat-tree QR: A = Q R in place (R upper, reflectors below +
/// in Tmat). Tmat must share A's tile layout with square nb(k)-sized tiles
/// (allocate with tile size = A's nb; only the top nb(k) x nb(k) is used).
template <typename T>
void dist_geqrf(Communicator& c, Grid g, TiledMatrix<T> A,
                TiledMatrix<T> Tmat) {
    int const mt = A.mt(), nt = A.nt();
    int const kt = std::min(mt, nt);
    tbp_require(Tmat.mt() == mt && Tmat.nt() == nt);
    int tag = 1 << 24;

    for (int k = 0; k < kt; ++k) {
        int const nbk = A.tile_nb(k);

        // -- geqrt on the diagonal tile --------------------------------------
        if (A.is_local(k, k)) {
            auto tt = Tmat.tile(k, k).sub(0, 0, nbk, nbk);
            blas::geqrt(A.tile(k, k), tt);
        }

        // Broadcast V(k,k) + T(k,k) along process row k for the updates.
        auto rk = row_group(g, k);
        auto vkk = stage(c, A, k, k, rk, tag);
        auto tkk = stage(c, Tmat, k, k, rk, tag + 1);
        vkk.ready();
        tkk.ready();
        tag += 2;
        for (int j = k + 1; j < nt; ++j) {
            if (A.is_local(k, j)) {
                int const kk = std::min(vkk.view.mb(), nbk);
                blas::unmqr(Op::ConjTrans, vkk.view, tkk.view.sub(0, 0, kk, kk),
                            A.tile(k, j));
            }
        }

        // -- TS chain down the panel ----------------------------------------
        for (int i = k + 1; i < mt; ++i) {
            // tsqrt runs at owner(i, k); the R tile (k, k) is borrowed there.
            int const runner = A.owner_rank(i, k);
            bool const involved =
                c.rank() == runner || c.rank() == A.owner_rank(k, k);
            if (involved) {
                detail::borrow_tile(c, A, k, k, runner, tag, [&](Tile<T> r1) {
                    auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                    blas::tsqrt(r1, A.tile(i, k), tt);
                });
            }
            tag += 2;

            // Broadcast V2 = A(i,k) and T(i,k) to the union of process rows
            // k and i (both sides of every tsmqr pair need them).
            std::vector<int> grp = row_group(g, i);
            for (int r : rk)
                if (!in_group(grp, r))
                    grp.push_back(r);
            auto v2 = stage(c, A, i, k, grp, tag);
            auto ti = stage(c, Tmat, i, k, grp, tag + 1);
            v2.ready();
            ti.ready();
            tag += 2;

            // Pairwise updates: tile (k, j) borrowed to owner(i, j).
            for (int j = k + 1; j < nt; ++j) {
                int const runner2 = A.owner_rank(i, j);
                bool const involved2 =
                    c.rank() == runner2 || c.rank() == A.owner_rank(k, j);
                if (involved2) {
                    detail::borrow_tile(
                        c, A, k, j, runner2, tag, [&](Tile<T> c1) {
                            blas::tsmqr(Op::ConjTrans, v2.view,
                                        ti.view.sub(0, 0, nbk, nbk), c1,
                                        A.tile(i, j));
                        });
                }
                tag += 2;
            }
        }
    }
}

/// Form Q (A.m x A.n) explicitly from a dist_geqrf-factored A: the reverse
/// reflector sweep applied to [I; 0]. Q must share A's layout.
template <typename T>
void dist_ungqr(Communicator& c, Grid g, TiledMatrix<T> A, TiledMatrix<T> Tmat,
                TiledMatrix<T> Q) {
    int const mt = A.mt(), nt = std::min(A.mt(), A.nt());
    tbp_require(Q.mt() == mt && Q.nt() == A.nt());
    dist_set_identity(Q);

    // Deterministic application schedule: for k descending, the pairwise
    // tsmqr blocks (i = mt-1 .. k+1), then the diagonal unmqr block
    // (recorded as i == k). Tags are assigned in schedule order up front so
    // every rank agrees and the next entry's broadcast can be posted early.
    struct Entry {
        int k, i;
        int stage_tag;   // V/T broadcast: stage_tag, stage_tag + 1
        int borrow_tag;  // first pairwise exchange tag (pair entries)
    };
    std::vector<Entry> sched;
    {
        int tag = 1 << 25;
        for (int k = nt - 1; k >= 0; --k) {
            for (int i = mt - 1; i > k; --i) {
                sched.push_back({k, i, tag, tag + 2});
                tag += 2 + 2 * (Q.nt() - k);
            }
            sched.push_back({k, k, tag, 0});
            tag += 2;
        }
    }

    // A and Tmat are read-only below (only Q is written), so entry e+1's
    // V/T broadcast legally overlaps entry e's reflector applications.
    struct VT {
        detail::PendingStage<T> v, t;
    };
    auto stage_entry = [&](int e) {
        Entry const& en = sched[static_cast<std::size_t>(e)];
        std::vector<int> grp = row_group(g, en.k);
        if (en.i != en.k) {
            auto gi = row_group(g, en.i);
            for (int r : grp)
                if (!in_group(gi, r))
                    gi.push_back(r);
            grp = std::move(gi);
        }
        return VT{stage(c, A, en.i, en.k, grp, en.stage_tag),
                  stage(c, Tmat, en.i, en.k, grp, en.stage_tag + 1)};
    };

    detail::pipelined_steps(
        static_cast<int>(sched.size()), stage_entry, [&](int e, VT& cur) {
            Entry const& en = sched[static_cast<std::size_t>(e)];
            int const nbk = A.tile_nb(en.k);
            if (en.i != en.k) {
                int btag = en.borrow_tag;
                for (int j = en.k; j < Q.nt(); ++j) {
                    int const runner = Q.owner_rank(en.i, j);
                    bool const involved =
                        c.rank() == runner || c.rank() == Q.owner_rank(en.k, j);
                    if (involved) {
                        detail::borrow_tile(
                            c, Q, en.k, j, runner, btag, [&](Tile<T> c1) {
                                auto tt = cur.t.ready().sub(0, 0, nbk, nbk);
                                blas::tsmqr(Op::NoTrans, cur.v.ready(), tt, c1,
                                            Q.tile(en.i, j));
                            });
                    }
                    btag += 2;
                }
            } else {
                for (int j = en.k; j < Q.nt(); ++j) {
                    if (Q.is_local(en.k, j)) {
                        int const kk = std::min(cur.v.ready().mb(), nbk);
                        auto tt = cur.t.ready().sub(0, 0, kk, kk);
                        blas::unmqr(Op::NoTrans, cur.v.ready(), tt,
                                    Q.tile(en.k, j));
                    }
                }
            }
        });
}

}  // namespace tbp::comm

// Communication as schedulable tasks on the shared-memory engine.
//
// Each rank runs its own rt::Engine; tile sends and receives are submitted
// as tasks keyed on the tile/staged-buffer data pointers, so the engine's
// dataflow dependencies order them against the compute tasks exactly like
// SLATE's communication tasks inside the OpenMP DAG: a gemm that consumes a
// staged panel tile waits (RAW on the staged buffer) for the receive task
// that fills it, while independent gemms keep the workers busy — comm and
// compute overlap through the DAG, not through explicit phases.
//
// Deadlock discipline (blocking receives on a finite worker pool): every
// send task is submitted BEFORE any receive task and at priority 1. A
// worker always pops its own priority lane first, so by the time any
// worker can pop a receive task (receives are submitted only after every
// send has been distributed to the deques), each worker has drained the
// sends in its own deque; a worker parked in a blocking receive therefore
// never strands an unexecuted send behind it, other workers drain their
// own lanes independently, and the transport's buffered sends guarantee
// the matching messages arrive. This holds for any worker count >= 1 and
// for Sequential mode (inline execution preserves the same order).

#pragma once

#include <deque>
#include <utility>

#include "comm/dist_algs.hh"
#include "comm/grid3d.hh"
#include "runtime/engine.hh"

namespace tbp::comm {

/// Submit a tile send as an engine task (read access on the tile data,
/// priority 1 — see the deadlock discipline above). The tile must not be
/// rewritten by tasks submitted later in this epoch unless they declare an
/// access on the same key.
template <typename T>
void task_send_tile(rt::Engine& eng, Communicator& c, Tile<T> t, int dst,
                    int tag) {
    eng.submit("send_tile", {rt::read(t.data())},
               [&c, t, dst, tag] { detail::send_tile(c, t, dst, tag); }, 1);
}

/// Submit a tile receive as an engine task. `dst` is resized here so its
/// buffer pointer (the dependency key) is stable; the task body blocks
/// until the message arrives. Submit only after every send task of the
/// epoch (see the deadlock discipline above).
template <typename T>
void task_recv_tile(rt::Engine& eng, Communicator& c, detail::Staged<T>& dst,
                    int mb, int nb, int src, int tag) {
    dst.mb = mb;
    dst.nb = nb;
    dst.buf.assign(static_cast<size_t>(mb) * nb, T(0));
    eng.submit("recv_tile", {rt::write(dst.buf.data())},
               [&c, &dst, src, tag] {
                   c.recv(dst.buf.data(), dst.buf.size(), src, tag);
               });
}

/// SUMMA gemm (C := alpha A B + beta C, NoTrans, conforming block-cyclic
/// distributions on g3's layer grid) with communication and computation
/// both running as tasks on this rank's engine: the task-DAG counterpart of
/// the SPMD summa_25d, bit-identical to it at every c and in both reduction
/// modes (every path accumulates through la::summa_step_accumulate and the
/// C-tile RW chains reproduce its fold order, while the engine overlaps
/// receives with ready gemms). The plain 2D SUMMA is g3 = {p, q, 1}. Staged
/// panels for all of a layer's steps are alive at once: O(kt * (mt + nt))
/// tiles of workspace — the price of a full-DAG epoch. The sends-before-
/// recvs discipline of the header extends to the replication fiber with one
/// new task kind:
///
///   - Phase 1 (priority 1): every send that depends only on owned tiles —
///     layer-0 fiber sends for all remote steps plus layer-0's own-step
///     within-layer staging sends.
///   - Phase 1b (priority 1, remote layers): recv_forward tasks, whose body
///     blocks for a fiber tile and then issues the within-layer staging
///     sends (buffered). These depend only on phase-1 fiber sends, so
///     draining them at the priority lane before any plain receive keeps
///     the wait graph acyclic: no staging send is ever stranded behind a
///     blocked plain receive.
///   - Then plain staged receives, then compute. In ExactOrder mode remote
///     gemm tasks ship their product tile from inside the task body
///     (buffered send, never blocks); in PartialSum mode a final send task
///     per C tile reads the layer partial, ordered after its accumulates by
///     the dataflow.
template <typename T>
void dist_gemm_tasks(Communicator& c, rt::Engine& eng, ProcGrid3d g3,
                     T alpha, TiledMatrix<T> A, TiledMatrix<T> B, T beta,
                     TiledMatrix<T> C, int tag_base = 1 << 27) {
    Grid const g = g3.layer();
    int const mt = C.mt(), nt = C.nt(), kt = A.nt();
    tbp_require(c.size() == g3.size());
    tbp_require(A.mt() == mt && B.mt() == kt && B.nt() == nt);

    bool const exact = c.coll_config().deterministic;
    int const my = c.rank();
    int const my_layer = g3.layer_of(my);
    int const my_lr = g3.layer_rank(my);
    int const my_lo = g3.step_lo(my_layer, kt);
    int const my_hi = g3.step_hi(my_layer, kt);

    // Same tag layout as summa_25d (stage, fiber, reduce spans), offset into
    // the engine-task namespace so an engine epoch can coexist with the SPMD
    // kernels in one World::run.
    int const span = mt + nt;
    auto stage_a_tag = [&](int l, int i) { return tag_base + l * span + i; };
    auto stage_b_tag = [&](int l, int j) {
        return tag_base + l * span + mt + j;
    };
    int const fiber0 = tag_base + kt * span;
    auto fiber_a_tag = [&](int l, int i) { return fiber0 + l * span + i; };
    auto fiber_b_tag = [&](int l, int j) { return fiber0 + l * span + mt + j; };
    int const red0 = tag_base + 2 * kt * span;
    auto reduce_tag = [&](int s, int i, int j) {
        return red0 + s * (mt * nt) + i + j * mt;
    };

    for (int j = 0; j < nt; ++j)
        for (int i = 0; i < mt; ++i)
            if (C.is_local(i, j)) {
                auto t = C.tile(i, j);
                eng.submit("scale_c", {rt::readwrite(t.data())},
                           [t, beta] { blas::scale(beta, t); });
            }

    // Workspaces alive until eng.wait().
    std::vector<std::map<int, detail::Staged<T>>> a_rep(
        static_cast<size_t>(kt)),
        b_rep(static_cast<size_t>(kt)), a_stage(static_cast<size_t>(kt)),
        b_stage(static_cast<size_t>(kt));
    std::map<std::pair<int, int>, detail::Staged<T>> part;
    std::deque<std::vector<T>> zbufs;  // stable refs: tasks capture elements

    if (my_layer == 0) {
        // Phase 1: fiber sends (remote steps) + own-step staging sends.
        for (int l = 0; l < kt; ++l) {
            int const lay = g3.layer_of_step(l, kt);
            if (lay != 0) {
                for (int i = 0; i < mt; ++i)
                    if (A.owner_rank(i, l) == my)
                        task_send_tile(eng, c, A.tile(i, l),
                                       g3.global(lay, my_lr),
                                       fiber_a_tag(l, i));
                for (int j = 0; j < nt; ++j)
                    if (B.owner_rank(l, j) == my)
                        task_send_tile(eng, c, B.tile(l, j),
                                       g3.global(lay, my_lr),
                                       fiber_b_tag(l, j));
                continue;
            }
            for (int i = 0; i < mt; ++i)
                if (A.owner_rank(i, l) == my)
                    for (int r : row_group(g, i))
                        if (r != my)
                            task_send_tile(eng, c, A.tile(i, l), r,
                                           stage_a_tag(l, i));
            for (int j = 0; j < nt; ++j)
                if (B.owner_rank(l, j) == my)
                    for (int r : col_group(g, j))
                        if (r != my)
                            task_send_tile(eng, c, B.tile(l, j), r,
                                           stage_b_tag(l, j));
        }

        // Phase 2: staged receives for layer 0's own steps.
        for (int l = 0; l < kt; ++l) {
            if (g3.layer_of_step(l, kt) != 0)
                continue;
            for (int i = 0; i < mt; ++i)
                if (in_group(row_group(g, i), my) && A.owner_rank(i, l) != my)
                    task_recv_tile(eng, c, a_stage[static_cast<size_t>(l)][i],
                                   A.tile_mb(i), A.tile_nb(l),
                                   A.owner_rank(i, l),
                                   stage_a_tag(l, i));
            for (int j = 0; j < nt; ++j)
                if (in_group(col_group(g, j), my) && B.owner_rank(l, j) != my)
                    task_recv_tile(eng, c, b_stage[static_cast<size_t>(l)][j],
                                   B.tile_mb(l), B.tile_nb(j),
                                   B.owner_rank(l, j),
                                   stage_b_tag(l, j));
        }

        // Phase 3: per C tile, the RW chain folds steps in ascending l
        // (ExactOrder) or own steps then layers (PartialSum).
        auto own_step_gemm = [&](int l) {
            for (int j = 0; j < nt; ++j)
                for (int i = 0; i < mt; ++i) {
                    if (!C.is_local(i, j))
                        continue;
                    Tile<T> ta =
                        A.owner_rank(i, l) == my
                            ? A.tile(i, l)
                            : a_stage[static_cast<size_t>(l)][i].tile();
                    Tile<T> tb =
                        B.owner_rank(l, j) == my
                            ? B.tile(l, j)
                            : b_stage[static_cast<size_t>(l)][j].tile();
                    auto tc = C.tile(i, j);
                    eng.submit("gemm", 2.0 * tc.mb() * tc.nb() * ta.nb(),
                               {rt::read(ta.data()), rt::read(tb.data()),
                                rt::readwrite(tc.data())},
                               [ta, tb, tc, alpha] {
                                   la::summa_step_accumulate(Op::NoTrans,
                                                             Op::NoTrans,
                                                             alpha, ta, tb,
                                                             tc);
                               });
                }
        };
        auto recv_add = [&](int src, int s, int i, int j) {
            auto tc = C.tile(i, j);
            eng.submit("recv_add", {rt::readwrite(tc.data())},
                       [&c, tc, src, tag = reduce_tag(s, i, j)] {
                           std::vector<T> zb(
                               static_cast<size_t>(tc.mb()) * tc.nb());
                           c.recv(zb, src, tag);
                           Tile<T> z(zb.data(), tc.mb(), tc.nb(), tc.mb());
                           blas::add(T(1), z, T(1), tc);
                       });
        };
        for (int l = 0; l < kt; ++l) {
            int const lay = g3.layer_of_step(l, kt);
            if (lay == 0)
                own_step_gemm(l);
            else if (exact)
                for (int j = 0; j < nt; ++j)
                    for (int i = 0; i < mt; ++i)
                        if (C.is_local(i, j))
                            recv_add(g3.global(lay, my), l, i, j);
        }
        if (!exact)
            for (int lay = 1; lay < g3.c; ++lay) {
                int const lo = g3.step_lo(lay, kt);
                if (lo >= g3.step_hi(lay, kt))
                    continue;
                for (int j = 0; j < nt; ++j)
                    for (int i = 0; i < mt; ++i)
                        if (C.is_local(i, j))
                            recv_add(g3.global(lay, my), lo, i, j);
            }
    } else if (my_lo < my_hi) {
        // Phase 1b: recv_forward — block for the fiber tile, then issue the
        // within-layer staging sends from the task body (priority 1, before
        // any plain receive task can run).
        for (int l = my_lo; l < my_hi; ++l) {
            for (int i = 0; i < mt; ++i) {
                if (A.owner_rank(i, l) != my_lr)
                    continue;
                auto& rep = a_rep[static_cast<size_t>(l)][i];
                rep.mb = A.tile_mb(i);
                rep.nb = A.tile_nb(l);
                rep.buf.assign(static_cast<size_t>(rep.mb) * rep.nb, T(0));
                std::vector<int> peers;
                for (int r : row_group(g, i))
                    if (r != my_lr)
                        peers.push_back(g3.global(my_layer, r));
                eng.submit("recv_forward", {rt::write(rep.buf.data())},
                           [&c, &rep, peers, src = my_lr,
                            ftag = fiber_a_tag(l, i),
                            stag = stage_a_tag(l, i)] {
                               c.recv(rep.buf.data(), rep.buf.size(), src,
                                      ftag);
                               for (int r : peers)
                                   c.send(rep.buf, r, stag);
                           },
                           1);
            }
            for (int j = 0; j < nt; ++j) {
                if (B.owner_rank(l, j) != my_lr)
                    continue;
                auto& rep = b_rep[static_cast<size_t>(l)][j];
                rep.mb = B.tile_mb(l);
                rep.nb = B.tile_nb(j);
                rep.buf.assign(static_cast<size_t>(rep.mb) * rep.nb, T(0));
                std::vector<int> peers;
                for (int r : col_group(g, j))
                    if (r != my_lr)
                        peers.push_back(g3.global(my_layer, r));
                eng.submit("recv_forward", {rt::write(rep.buf.data())},
                           [&c, &rep, peers, src = my_lr,
                            ftag = fiber_b_tag(l, j),
                            stag = stage_b_tag(l, j)] {
                               c.recv(rep.buf.data(), rep.buf.size(), src,
                                      ftag);
                               for (int r : peers)
                                   c.send(rep.buf, r, stag);
                           },
                           1);
            }
        }

        // Plain staged receives from same-layer holders.
        for (int l = my_lo; l < my_hi; ++l) {
            for (int i = 0; i < mt; ++i)
                if (in_group(row_group(g, i), my_lr)
                    && A.owner_rank(i, l) != my_lr)
                    task_recv_tile(eng, c, a_stage[static_cast<size_t>(l)][i],
                                   A.tile_mb(i), A.tile_nb(l),
                                   g3.global(my_layer, A.owner_rank(i, l)),
                                   stage_a_tag(l, i));
            for (int j = 0; j < nt; ++j)
                if (in_group(col_group(g, j), my_lr)
                    && B.owner_rank(l, j) != my_lr)
                    task_recv_tile(eng, c, b_stage[static_cast<size_t>(l)][j],
                                   B.tile_mb(l), B.tile_nb(j),
                                   g3.global(my_layer, B.owner_rank(l, j)),
                                   stage_b_tag(l, j));
        }

        // Compute this layer's steps.
        if (!exact)
            for (int j = 0; j < nt; ++j)
                for (int i = 0; i < mt; ++i)
                    if (C.owner_rank(i, j) == my_lr) {
                        auto& pt = part[{i, j}];
                        pt.mb = C.tile_mb(i);
                        pt.nb = C.tile_nb(j);
                        pt.buf.assign(static_cast<size_t>(pt.mb) * pt.nb,
                                      T(0));
                    }
        for (int l = my_lo; l < my_hi; ++l) {
            for (int j = 0; j < nt; ++j)
                for (int i = 0; i < mt; ++i) {
                    if (C.owner_rank(i, j) != my_lr)
                        continue;
                    Tile<T> ta =
                        A.owner_rank(i, l) == my_lr
                            ? a_rep[static_cast<size_t>(l)][i].tile()
                            : a_stage[static_cast<size_t>(l)][i].tile();
                    Tile<T> tb =
                        B.owner_rank(l, j) == my_lr
                            ? b_rep[static_cast<size_t>(l)][j].tile()
                            : b_stage[static_cast<size_t>(l)][j].tile();
                    if (exact) {
                        zbufs.emplace_back(
                            static_cast<size_t>(C.tile_mb(i)) * C.tile_nb(j));
                        auto& zb = zbufs.back();
                        Tile<T> z(zb.data(), C.tile_mb(i), C.tile_nb(j),
                                  C.tile_mb(i));
                        eng.submit("gemm_ship",
                                   2.0 * z.mb() * z.nb() * ta.nb(),
                                   {rt::read(ta.data()), rt::read(tb.data()),
                                    rt::write(z.data())},
                                   [&c, &zb, ta, tb, z, alpha, dst = my_lr,
                                    tag = reduce_tag(l, i, j)] {
                                       la::summa_step_product(Op::NoTrans,
                                                              Op::NoTrans,
                                                              alpha, ta, tb,
                                                              z);
                                       c.send(zb, dst, tag);
                                   });
                    } else {
                        auto tp = part[{i, j}].tile();
                        eng.submit("gemm", 2.0 * tp.mb() * tp.nb() * ta.nb(),
                                   {rt::read(ta.data()), rt::read(tb.data()),
                                    rt::readwrite(tp.data())},
                                   [ta, tb, tp, alpha] {
                                       la::summa_step_accumulate(Op::NoTrans,
                                                                 Op::NoTrans,
                                                                 alpha, ta,
                                                                 tb, tp);
                                   });
                    }
                }
        }
        if (!exact)
            for (auto& kv : part) {
                auto& pt = kv.second;
                eng.submit("send_partial", {rt::read(pt.buf.data())},
                           [&c, &pt, dst = my_lr,
                            tag = reduce_tag(my_lo, kv.first.first,
                                             kv.first.second)] {
                               c.send(pt.buf, dst, tag);
                           });
            }
    }
    eng.wait();
}

}  // namespace tbp::comm

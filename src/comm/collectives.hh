// Algorithmic collectives for the simulated-MPI Communicator.
//
// This header is included at the end of communicator.hh and defines the
// collective member templates declared there. Algorithm selection is per
// coll::Config (comm_stats.hh); the Linear paths are kept as the bitwise
// reference oracle.
//
// Determinism contract: every reduction algorithm except Ring combines
// contributions in ascending original-rank order — acc starts from rank 0's
// block and op(acc, block_r) folds r = 1..P-1 — so Linear, Tree, and
// RecDouble produce bit-identical results. They achieve this by moving raw
// (unfolded) per-rank blocks and folding only once all blocks are present,
// trading O(P * count) buffer space for exact reproducibility across
// algorithm choices. Ring folds partial sums as chunks travel the ring
// (classic reduce-scatter + allgather): deterministic at fixed P, but a
// different association order.
//
// All internal traffic runs on reserved negative tags so it can never
// collide with user point-to-point messages (user tags are asserted >= 0).

#pragma once

#include "comm/communicator.hh"

#include <algorithm>

namespace tbp::comm {

namespace detail {

// Internal collective tag namespace (user tags are >= 0).
constexpr int kTagBcast = -1;
constexpr int kTagReduce = -2;
constexpr int kTagAllreduce = -3;
constexpr int kTagRingRS = -4;   // ring reduce-scatter phase
constexpr int kTagRingAG = -5;   // ring allgather phase
constexpr int kTagGather = -6;   // allgather
constexpr int kTagGatherv = -7;  // allgatherv payload

/// Largest power of two <= n (n >= 1).
inline int floor_pow2(int n) {
    int p = 1;
    while (p * 2 <= n)
        p *= 2;
    return p;
}

}  // namespace detail

// --- bcast -----------------------------------------------------------------

template <typename T>
void Communicator::bcast(T* data, std::size_t count, int root) {
    tbp_require(0 <= root && root < size());
    count_collective();
    if (size() == 1)
        return;
    // On a transport failure the collective's name is stamped onto the
    // dimensioned error; recovery itself lives at the p2p layer (resend /
    // dedup by sequence number), so by the time an error escapes here the
    // retry budget is already spent.
    try {
        switch (coll::resolve_bcast(cfg_, count * sizeof(T))) {
            case coll::Algo::Linear:
                bcast_linear(data, count, root);
                break;
            default:
                bcast_tree(data, count, root);
                break;
        }
    } catch (CommError const& e) {
        throw annotate(e, "bcast");
    }
}

/// Legacy oracle: root sends one message per rank (P-1 sends at the root).
template <typename T>
void Communicator::bcast_linear(T* data, std::size_t count, int root) {
    if (rank_ == root) {
        for (int r = 0; r < size(); ++r)
            if (r != root)
                send_i(data, count, r, detail::kTagBcast);
    } else {
        recv_i(data, count, root, detail::kTagBcast);
    }
}

/// Binomial tree in the rank space rotated so root maps to virtual rank 0:
/// ceil(log2 P) rounds, no rank sends more than ceil(log2 P) messages.
template <typename T>
void Communicator::bcast_tree(T* data, std::size_t count, int root) {
    int const P = size();
    int const vr = (rank_ - root + P) % P;  // virtual rank (root -> 0)

    int mask = 1;
    while (mask < P) {
        if (vr & mask) {
            int const src = (vr - mask + root) % P;
            recv_i(data, count, src, detail::kTagBcast);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (vr + mask < P) {
            int const dst = (vr + mask + root) % P;
            send_i(data, count, dst, detail::kTagBcast);
        }
        mask >>= 1;
    }
}

// --- reduce ----------------------------------------------------------------

template <typename T, typename OpF>
void Communicator::reduce(T* data, std::size_t count, OpF const& op,
                          int root) {
    tbp_require(0 <= root && root < size());
    count_collective();
    if (size() == 1)
        return;
    try {
        switch (coll::resolve_reduce(cfg_, count * sizeof(T))) {
            case coll::Algo::Linear:
                reduce_linear(data, count, op, root);
                break;
            default:
                reduce_tree(data, count, op, root);
                break;
        }
    } catch (CommError const& e) {
        throw annotate(e, "reduce");
    }
}

/// Legacy oracle: every rank sends its block to root; root folds in
/// ascending-rank order (P-1 receives at the root).
template <typename T, typename OpF>
void Communicator::reduce_linear(T* data, std::size_t count, OpF const& op,
                                 int root) {
    if (rank_ != root) {
        send_i(data, count, root, detail::kTagReduce);
        return;
    }
    std::vector<T> tmp(count);
    std::vector<T> acc(count);
    bool first = true;
    for (int r = 0; r < size(); ++r) {
        T const* contrib = data;
        if (r != root) {
            recv_i(tmp.data(), count, r, detail::kTagReduce);
            contrib = tmp.data();
        }
        if (first) {
            std::copy(contrib, contrib + count, acc.begin());
            first = false;
        } else {
            for (std::size_t i = 0; i < count; ++i)
                op(acc[i], contrib[i]);
        }
    }
    std::copy(acc.begin(), acc.end(), data);
}

/// Binomial-tree gather of raw blocks plus a single rank-ordered fold at
/// the root. Each node's buffer holds the blocks of its subtree — a
/// contiguous virtual-rank range [vr, vr + 2^k) clipped to P — in
/// ascending virtual-rank order, so the root ends with all P blocks and
/// can fold them in ascending original-rank order (bit-identical to
/// reduce_linear). No rank receives more than ceil(log2 P) messages.
template <typename T, typename OpF>
void Communicator::reduce_tree(T* data, std::size_t count, OpF const& op,
                               int root) {
    int const P = size();
    int const vr = (rank_ - root + P) % P;

    std::vector<T> buf(data, data + count);
    int mask = 1;
    while (mask < P) {
        if (vr & mask) {
            int const parent = (vr - mask + root) % P;
            send_i(buf.data(), buf.size(), parent, detail::kTagReduce);
            return;
        }
        if (vr + mask < P) {
            int const child = (vr + mask + root) % P;
            auto const nblocks = static_cast<std::size_t>(
                std::min(mask, P - (vr + mask)));
            std::size_t const old = buf.size();
            buf.resize(old + nblocks * count);
            recv_i(buf.data() + old, nblocks * count, child,
                   detail::kTagReduce);
        }
        mask <<= 1;
    }

    // Root (vr == 0): buf holds blocks for virtual ranks 0..P-1 in order.
    // Fold in ascending *original* rank order: orig r lives at virtual
    // rank (r - root + P) % P.
    std::vector<T> acc(count);
    for (int r = 0; r < P; ++r) {
        int const v = (r - root + P) % P;
        T const* blk = buf.data() + static_cast<std::size_t>(v) * count;
        if (r == 0) {
            std::copy(blk, blk + count, acc.begin());
        } else {
            for (std::size_t i = 0; i < count; ++i)
                op(acc[i], blk[i]);
        }
    }
    std::copy(acc.begin(), acc.end(), data);
}

// --- allreduce -------------------------------------------------------------

template <typename T, typename OpF>
void Communicator::allreduce(T* data, std::size_t count, OpF const& op) {
    count_collective();
    if (size() == 1)
        return;
    try {
        switch (coll::resolve_allreduce(cfg_, count * sizeof(T))) {
            case coll::Algo::Linear:
                // Oracle: gather-and-fold at rank 0, linear re-broadcast.
                reduce_linear(data, count, op, 0);
                bcast_linear(data, count, 0);
                break;
            case coll::Algo::RecDouble:
                allreduce_recdouble(data, count, op);
                break;
            case coll::Algo::Ring:
                allreduce_ring(data, count, op);
                break;
            default:
                reduce_tree(data, count, op, 0);
                bcast_tree(data, count, 0);
                break;
        }
    } catch (CommError const& e) {
        throw annotate(e, "allreduce");
    }
}

/// Recursive doubling on raw blocks: log2 rounds of pairwise exchange that
/// double each rank's block set, then one local ascending-rank fold on
/// every rank (bit-identical to Linear/Tree).
///
/// Non-power-of-two P: with pow2 = largest power of two <= P and
/// rem = P - pow2, the odd ranks below 2*rem pre-send their block to the
/// even neighbour and sit out; the remaining pow2 ranks get effective ids
/// e (e < rem holds blocks {2e, 2e+1}, e >= rem holds {e + rem}), run the
/// exchange, fold, and ship the result back. After round k an effective
/// rank holds the initial blocks of every e' with e' >> k == e >> k — a
/// contiguous effective range, kept in ascending order so the final buffer
/// is ascending in original rank by construction.
template <typename T, typename OpF>
void Communicator::allreduce_recdouble(T* data, std::size_t count,
                                       OpF const& op) {
    int const P = size();
    int const me = rank_;
    int const pow2 = detail::floor_pow2(P);
    int const rem = P - pow2;

    std::vector<T> buf;
    int e;  // effective rank in [0, pow2)
    if (me < 2 * rem) {
        if (me % 2 == 1) {
            // Passive: contribute, then pick up the result.
            send_i(data, count, me - 1, detail::kTagAllreduce);
            recv_i(data, count, me - 1, detail::kTagAllreduce);
            return;
        }
        e = me / 2;
        buf.resize(2 * count);
        std::copy(data, data + count, buf.begin());
        recv_i(buf.data() + count, count, me + 1, detail::kTagAllreduce);
    } else {
        e = me - rem;
        buf.assign(data, data + count);
    }

    auto orig_of = [&](int eff) { return eff < rem ? 2 * eff : eff + rem; };

    for (int mask = 1; mask < pow2; mask <<= 1) {
        int const partner = orig_of(e ^ mask);
        send_i(buf.data(), buf.size(), partner, detail::kTagAllreduce);
        std::vector<T> other;
        recv_i_dyn(other, partner, detail::kTagAllreduce);
        if (e & mask) {
            // Partner holds the lower effective half: prepend.
            other.insert(other.end(), buf.begin(), buf.end());
            buf = std::move(other);
        } else {
            buf.insert(buf.end(), other.begin(), other.end());
        }
    }

    // buf = all P blocks in ascending original-rank order; fold.
    if (count > 0) {
        T* acc = buf.data();
        for (int b = 1; b < P; ++b) {
            T const* blk = buf.data() + static_cast<std::size_t>(b) * count;
            for (std::size_t i = 0; i < count; ++i)
                op(acc[i], blk[i]);
        }
        std::copy(acc, acc + count, data);
    }
    if (me < 2 * rem)
        send_i(data, count, me + 1, detail::kTagAllreduce);
}

/// Chunk-pipelined ring: reduce-scatter (P-1 steps, each rank ends owning
/// one fully reduced chunk) then allgather (P-1 steps circulating the
/// reduced chunks). Bandwidth-optimal — every rank sends and receives
/// 2 * (P-1) / P of the payload regardless of P — but the per-chunk fold
/// order follows the ring, so results re-associate relative to the
/// rank-ordered algorithms (still deterministic at fixed P).
template <typename T, typename OpF>
void Communicator::allreduce_ring(T* data, std::size_t count, OpF const& op) {
    int const P = size();
    int const me = rank_;
    int const right = (me + 1) % P;
    int const left = (me - 1 + P) % P;
    auto lo = [&](int c) {
        return count * static_cast<std::size_t>(c) / static_cast<std::size_t>(P);
    };

    std::vector<T> tmp;
    for (int s = 0; s < P - 1; ++s) {
        int const sc = (me - s + P) % P;
        int const rc = (me - s - 1 + P) % P;
        send_i(data + lo(sc), lo(sc + 1) - lo(sc), right, detail::kTagRingRS);
        std::size_t const n = lo(rc + 1) - lo(rc);
        tmp.resize(n);
        recv_i(tmp.data(), n, left, detail::kTagRingRS);
        T* d = data + lo(rc);
        for (std::size_t i = 0; i < n; ++i)
            op(tmp[i], d[i]);
        std::copy(tmp.begin(), tmp.end(), d);
    }
    for (int s = 0; s < P - 1; ++s) {
        int const sc = (me + 1 - s + P) % P;
        int const rc = (me - s + P) % P;
        send_i(data + lo(sc), lo(sc + 1) - lo(sc), right, detail::kTagRingAG);
        recv_i(data + lo(rc), lo(rc + 1) - lo(rc), left, detail::kTagRingAG);
    }
}

// --- allgather -------------------------------------------------------------

template <typename T>
void Communicator::allgather(T const* sendbuf, std::size_t count,
                             T* recvbuf) {
    count_collective();
    if (count > 0)
        std::copy(sendbuf, sendbuf + count,
                  recvbuf + static_cast<std::size_t>(rank_) * count);
    if (size() == 1)
        return;
    try {
        switch (coll::resolve_allgather(cfg_, count * sizeof(T))) {
            case coll::Algo::Linear:
                allgather_linear(sendbuf, count, recvbuf);
                break;
            case coll::Algo::Ring:
                allgather_ring(sendbuf, count, recvbuf);
                break;
            default:
                allgather_tree(sendbuf, count, recvbuf);
                break;
        }
    } catch (CommError const& e) {
        throw annotate(e, "allgather");
    }
}

/// Everyone sends to everyone: O(P^2) messages total, but only one round.
/// Uses the nonblocking layer — all receives posted up front, then sends,
/// then wait_all — so it doubles as the request layer's exerciser.
template <typename T>
void Communicator::allgather_linear(T const* sendbuf, std::size_t count,
                                    T* recvbuf) {
    int const P = size();
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(P - 1));
    for (int r = 0; r < P; ++r)
        if (r != rank_) {
            auto op = std::make_shared<detail::RecvOp>();
            op->src = r;
            op->tag = detail::kTagGather;
            op->data = reinterpret_cast<std::byte*>(
                recvbuf + static_cast<std::size_t>(r) * count);
            op->bytes = count * sizeof(T);
            post_recv(op);
            reqs.push_back(Request(this, std::move(op)));
        }
    for (int r = 0; r < P; ++r)
        if (r != rank_)
            send_i(sendbuf, count, r, detail::kTagGather);
    Request::wait_all(reqs);
}

/// Binomial gather of the blocks to rank 0 followed by a tree bcast of the
/// concatenated buffer: 2 * ceil(log2 P) rounds, root bottleneck gone.
template <typename T>
void Communicator::allgather_tree(T const* sendbuf, std::size_t count,
                                  T* recvbuf) {
    int const P = size();
    int const me = rank_;

    std::vector<T> buf(sendbuf, sendbuf + count);
    int mask = 1;
    bool sent = false;
    while (mask < P) {
        if (me & mask) {
            send_i(buf.data(), buf.size(), me - mask, detail::kTagGather);
            sent = true;
            break;
        }
        if (me + mask < P) {
            auto const nblocks = static_cast<std::size_t>(
                std::min(mask, P - (me + mask)));
            std::size_t const old = buf.size();
            buf.resize(old + nblocks * count);
            recv_i(buf.data() + old, nblocks * count, me + mask,
                   detail::kTagGather);
        }
        mask <<= 1;
    }
    if (!sent && me == 0)
        std::copy(buf.begin(), buf.end(), recvbuf);
    bcast_tree(recvbuf, static_cast<std::size_t>(P) * count, 0);
}

/// Ring allgather: P-1 steps circulating the blocks; bandwidth-optimal.
template <typename T>
void Communicator::allgather_ring(T const* sendbuf, std::size_t count,
                                  T* recvbuf) {
    (void)sendbuf;  // own block already placed by allgather()
    int const P = size();
    int const me = rank_;
    int const right = (me + 1) % P;
    int const left = (me - 1 + P) % P;
    for (int s = 0; s < P - 1; ++s) {
        int const sc = (me - s + P) % P;
        int const rc = (me - s - 1 + P) % P;
        send_i(recvbuf + static_cast<std::size_t>(sc) * count, count, right,
               detail::kTagGather);
        recv_i(recvbuf + static_cast<std::size_t>(rc) * count, count, left,
               detail::kTagGather);
    }
}

// --- allgatherv ------------------------------------------------------------

template <typename T>
std::vector<T> Communicator::allgatherv(std::vector<T> const& mine,
                                        std::vector<std::size_t>* counts) {
    count_collective();
    try {
    int const P = size();
    int const me = rank_;

    std::vector<std::size_t> cnt(static_cast<std::size_t>(P));
    std::size_t const myc = mine.size();
    // Linear only on request; every other choice runs the binomial tree.
    bool const linear = coll::resolve_allgather(cfg_, myc * sizeof(T))
                        == coll::Algo::Linear;
    if (P == 1) {
        cnt[0] = myc;
    } else if (linear) {
        cnt[static_cast<std::size_t>(me)] = myc;
        allgather_linear(&myc, 1, cnt.data());
    } else {
        cnt[static_cast<std::size_t>(me)] = myc;
        allgather_tree(&myc, 1, cnt.data());
    }

    std::vector<std::size_t> off(static_cast<std::size_t>(P) + 1, 0);
    for (int r = 0; r < P; ++r)
        off[static_cast<std::size_t>(r) + 1] =
            off[static_cast<std::size_t>(r)] + cnt[static_cast<std::size_t>(r)];
    std::vector<T> out(off[static_cast<std::size_t>(P)]);

    if (P == 1) {
        std::copy(mine.begin(), mine.end(), out.begin());
    } else if (linear) {
        // Linear oracle: direct exchange of payloads.
        for (int r = 0; r < P; ++r)
            if (r != me)
                send_i(mine.data(), myc, r, detail::kTagGatherv);
        for (int r = 0; r < P; ++r) {
            if (r == me)
                std::copy(mine.begin(), mine.end(), out.begin() + off[r]);
            else
                recv_i(out.data() + off[r], cnt[r], r, detail::kTagGatherv);
        }
    } else {
        // Binomial gather of variable blocks to rank 0 (subtree payload
        // sizes are computable from cnt), then tree bcast of the result.
        std::vector<T> buf = mine;
        int mask = 1;
        bool sent = false;
        while (mask < P) {
            if (me & mask) {
                send_i(buf.data(), buf.size(), me - mask,
                       detail::kTagGatherv);
                sent = true;
                break;
            }
            if (me + mask < P) {
                int const child = me + mask;
                int const hi = std::min(P, child + mask);
                std::size_t nelems = 0;
                for (int r = child; r < hi; ++r)
                    nelems += cnt[static_cast<std::size_t>(r)];
                std::size_t const old = buf.size();
                buf.resize(old + nelems);
                recv_i(buf.data() + old, nelems, child, detail::kTagGatherv);
            }
            mask <<= 1;
        }
        if (!sent && me == 0)
            std::copy(buf.begin(), buf.end(), out.begin());
        bcast_tree(out.data(), out.size(), 0);
    }

    if (counts)
        *counts = std::move(cnt);
    return out;
    } catch (CommError const& e) {
        throw annotate(e, "allgatherv");
    }
}

}  // namespace tbp::comm

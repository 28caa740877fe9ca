// Simulated message passing over in-process virtual ranks.
//
// TBP's stand-in for MPI (no MPI implementation exists in this environment):
// World spawns P ranks as threads running the same SPMD function, and
// Communicator gives each rank tagged point-to-point send/recv plus the
// collectives QDWH's building blocks use. Semantics follow MPI: sends of
// trivially-copyable element buffers are buffered (never block), receives
// block, FIFO per (src, dst, tag) channel, deterministic reductions.
//
// Nonblocking engine: isend/irecv return Request handles with test/wait/
// wait_all. A posted receive enters the rank's pending queue; the per-rank
// progress loop (progress(), also run by every test/wait and by blocking
// receives) matches pending receives against arrived messages in post
// order, which preserves MPI's posted-receive matching semantics. Sends
// complete at post time (the transport is buffered), so overlap comes from
// posting receives early and waiting late — the distributed kernels in
// dist_algs.hh/dist_qr.hh pipeline their panel broadcasts this way.
//
// Tag namespaces: user tags are non-negative (asserted). The library's
// collectives run in a reserved negative tag space, so internal traffic can
// never collide with user point-to-point messages.
//
// Collectives: binomial-tree bcast/reduce, recursive-doubling and ring
// (chunk-pipelined) allreduce, allgather(v) — selected per message size via
// coll::Config (see comm_stats.hh), with the linear/root-bottleneck paths
// kept selectable as a bitwise reference oracle. Reductions combine
// contributions in ascending-rank order for every algorithm except Ring,
// so oracle and engine agree bit-for-bit by default.

// Fault plane: World::set_fault installs a seeded fault::FaultInjector
// (src/fault/). With a plan installed every p2p payload travels in a
// {magic, seq, checksum} wire envelope; receivers deliver strictly in
// per-channel sequence order, absorb duplicates, recover corrupted payloads
// from the sender's retained clean copy, and re-drive dropped messages
// after a timeout with bounded exponential backoff (RetryConfig). Blocked
// receives and barriers fail with a dimensioned CommError instead of
// hanging once the retry budget is exhausted, and a poisoned rank
// fail-stops by throwing RankFailedError from its own send. Without a plan
// none of this machinery is touched — the wire format and the wait paths
// are byte-for-byte the pre-fault engine.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/comm_error.hh"
#include "comm/comm_stats.hh"
#include "common/error.hh"
#include "common/timer.hh"
#include "fault/injector.hh"

namespace tbp::comm {

class Communicator;

namespace detail {

/// Shared mailbox state for one World.
struct Shared {
    /// One in-flight message. `release` is the fault plane's delivery
    /// embargo (wall_time() before which progress must not match it); 0 —
    /// the only value the fault-free path ever writes — means deliverable.
    struct Msg {
        std::vector<std::byte> bytes;
        double release = 0;
    };
    struct Channel {
        std::deque<Msg> messages;
    };

    std::mutex mtx;
    std::condition_variable cv;
    // key: (src, dst, tag)
    std::map<std::tuple<int, int, int>, Channel> channels;

    // Sense-reversing barrier.
    int barrier_count = 0;
    int barrier_sense = 0;

    int nranks = 0;

    coll::Config coll_cfg;              // default config for new Communicators
    std::vector<CommStats> rank_stats;  // flushed by World::run per rank

    // Installed by World::set_fault (null: fault-free fast path). Stable
    // for the duration of a run; all mutating access holds mtx.
    std::shared_ptr<fault::FaultInjector> fault;
};

/// One posted (pending) receive. Matched against arrived messages by the
/// owning rank's progress loop, in post order.
struct RecvOp {
    int src = -1;
    int tag = 0;
    std::byte* data = nullptr;              // fixed-size destination
    std::size_t bytes = 0;                  // expected payload (fixed mode)
    std::vector<std::byte>* dyn = nullptr;  // dynamic mode: takes the payload
    // Set under the shared mutex, after `data`/`error` are final; read
    // without it by the fast paths of wait/test/done, so atomic.
    std::atomic<bool> done{false};
    // Set instead of `data` when the operation failed (size mismatch,
    // timeout, dead sender): done is still true so waiters unblock, and
    // wait/test rethrow the dimensioned CommError to the caller.
    std::exception_ptr error;
};

}  // namespace detail

/// Handle for a nonblocking operation. Default-constructed and isend
/// requests are already complete. Requests must be completed (test() ==
/// true or wait()) before the owning Communicator is destroyed.
class Request {
public:
    Request() = default;

    /// Nonblocking completion attempt; runs the progress loop. Rethrows
    /// the operation's CommError if it completed in error.
    bool test();

    /// Block until complete; wait time is charged to the rank's counters.
    /// In fault mode the wait is timed and may re-drive dropped messages;
    /// rethrows the operation's dimensioned CommError on failure.
    void wait();

    /// Complete without throwing: any transfer error is absorbed into the
    /// rank's fault.recovery_errors counter. The drain-guard primitive for
    /// destructors and unwind paths (PendingStage, staged-panel teardown).
    void drain() noexcept;

    bool done() const;

    static void wait_all(Request* rs, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            rs[i].wait();
    }
    static void wait_all(std::vector<Request>& rs) {
        wait_all(rs.data(), rs.size());
    }

private:
    friend class Communicator;
    Request(Communicator* c, std::shared_ptr<detail::RecvOp> op)
        : comm_(c), op_(std::move(op)) {}

    Communicator* comm_ = nullptr;
    std::shared_ptr<detail::RecvOp> op_;  // null: already complete (send)
};

class Communicator {
public:
    Communicator(int rank, std::shared_ptr<detail::Shared> shared)
        : rank_(rank), s_(std::move(shared)), cfg_(s_->coll_cfg) {}

    int rank() const { return rank_; }
    int size() const { return s_->nranks; }

    // --- point-to-point (user tag space: tag >= 0) ------------------------

    /// Blocking tagged send of `count` elements of trivially copyable T.
    /// Buffered: never blocks. Self-sends (dst == rank()) are legal and are
    /// received by a later recv/irecv on this rank. count == 0 is legal.
    template <typename T>
    void send(T const* data, std::size_t count, int dst, int tag = 0) {
        require_user_tag(tag);
        send_raw(data, count, dst, tag);
    }

    template <typename T>
    void send(std::vector<T> const& v, int dst, int tag = 0) {
        send(v.data(), v.size(), dst, tag);
    }

    /// Blocking tagged receive; the message length must equal `count`
    /// elements (asserted — the message carries its size).
    template <typename T>
    void recv(T* data, std::size_t count, int src, int tag = 0) {
        require_user_tag(tag);
        recv_raw(data, count, src, tag);
    }

    /// Blocking receive into a vector. The message length defines the
    /// element count: a default-constructed vector is resized to fit; a
    /// non-empty vector must match the message length exactly (asserted).
    template <typename T>
    void recv(std::vector<T>& v, int src, int tag = 0) {
        require_user_tag(tag);
        recv_raw_dyn(v, src, tag);
    }

    /// Nonblocking send. The transport is buffered, so the returned request
    /// is already complete; it exists so call sites read symmetrically and
    /// keep working if the transport ever becomes truly asynchronous.
    template <typename T>
    Request isend(T const* data, std::size_t count, int dst, int tag = 0) {
        require_user_tag(tag);
        send_raw(data, count, dst, tag);
        return Request();
    }

    /// Nonblocking receive of exactly `count` elements into `data`, which
    /// must stay valid until the request completes.
    template <typename T>
    Request irecv(T* data, std::size_t count, int src, int tag = 0) {
        require_user_tag(tag);
        return irecv_raw(data, count, src, tag);
    }

    /// Nonblocking receive into a pre-sized vector (irecv of v.size()).
    template <typename T>
    Request irecv(std::vector<T>& v, int src, int tag = 0) {
        return irecv(v.data(), v.size(), src, tag);
    }

    /// Per-rank progress loop: matches pending receives against arrived
    /// messages (post order). Called implicitly by test/wait and blocking
    /// receives; safe to call from any thread of this rank.
    void progress();

    /// All ranks synchronize.
    void barrier();

    // --- collectives (algorithm per coll::Config; internal tag space) -----

    /// Broadcast `count` elements from root to every rank (in place).
    template <typename T>
    void bcast(T* data, std::size_t count, int root = 0);

    template <typename T>
    void bcast(std::vector<T>& v, int root = 0) {
        bcast(v.data(), v.size(), root);
    }

    /// Reduce to root with a deterministic ascending-rank-order combine:
    /// acc starts from rank 0's contribution and op(acc, x) folds x in.
    /// Every algorithm (Linear, Tree) preserves this order bit-for-bit.
    template <typename T, typename OpF>
    void reduce(T* data, std::size_t count, OpF const& op, int root = 0);

    /// In-place element-wise allreduce. Linear/Tree/RecDouble combine in
    /// ascending-rank order (bitwise-identical across those algorithms);
    /// Ring re-associates per chunk but is deterministic at fixed P.
    template <typename T, typename OpF>
    void allreduce(T* data, std::size_t count, OpF const& op);

    template <typename T>
    void allreduce_sum(T* data, std::size_t count) {
        allreduce(data, count, [](T& a, T const& b) { a += b; });
    }

    template <typename T>
    void allreduce_sum(std::vector<T>& v) {
        allreduce_sum(v.data(), v.size());
    }

    template <typename T>
    T allreduce_max(T x) {
        allreduce(&x, std::size_t(1), [](T& a, T const& b) {
            if (b > a)
                a = b;
        });
        return x;
    }

    template <typename T>
    T allreduce_sum_scalar(T x) {
        allreduce_sum(&x, 1);
        return x;
    }

    /// Gather `count` elements from every rank into recvbuf (size() * count
    /// elements, ordered by rank) on every rank.
    template <typename T>
    void allgather(T const* sendbuf, std::size_t count, T* recvbuf);

    /// Variable-count allgather: concatenates every rank's vector in rank
    /// order on every rank. If `counts` is non-null it receives the
    /// per-rank element counts.
    template <typename T>
    std::vector<T> allgatherv(std::vector<T> const& mine,
                              std::vector<std::size_t>* counts = nullptr);

    // --- configuration and counters ---------------------------------------

    coll::Config const& coll_config() const { return cfg_; }

    /// Set this rank's collective configuration. Must be called with the
    /// same value on every rank (algorithm selection has to agree).
    void set_coll_config(coll::Config cfg) { cfg_ = cfg; }

    CommStats stats() const {
        std::lock_guard<std::mutex> lk(s_->mtx);
        return stats_;
    }
    void reset_stats() {
        std::lock_guard<std::mutex> lk(s_->mtx);
        stats_ = CommStats{};
    }

private:
    friend class Request;
    friend class World;

    static void require_user_tag(int tag) {
        // Negative tags are reserved for library-internal collectives.
        tbp_require(tag >= 0);
    }

    // Internal-tag transport used by the collective algorithms.
    template <typename T>
    void send_i(T const* data, std::size_t count, int dst, int tag) {
        send_raw(data, count, dst, tag);
    }
    template <typename T>
    void recv_i(T* data, std::size_t count, int src, int tag) {
        recv_raw(data, count, src, tag);
    }
    template <typename T>
    void recv_i_dyn(std::vector<T>& v, int src, int tag) {
        recv_raw_dyn(v, src, tag);
    }

    template <typename T>
    void send_raw(T const* data, std::size_t count, int dst, int tag) {
        static_assert(std::is_trivially_copyable_v<T>);
        tbp_require(0 <= dst && dst < size());
        std::vector<std::byte> buf(count * sizeof(T));
        if (!buf.empty())
            std::memcpy(buf.data(), data, buf.size());
        push_message(rank_, dst, tag, std::move(buf));
    }

    template <typename T>
    void recv_raw(T* data, std::size_t count, int src, int tag) {
        static_assert(std::is_trivially_copyable_v<T>);
        tbp_require(0 <= src && src < size());
        recv_bytes(reinterpret_cast<std::byte*>(data), count * sizeof(T), src,
                   tag);
    }

    template <typename T>
    void recv_raw_dyn(std::vector<T>& v, int src, int tag) {
        static_assert(std::is_trivially_copyable_v<T>);
        tbp_require(0 <= src && src < size());
        std::vector<std::byte> raw;
        recv_bytes_dyn(raw, src, tag);
        if (raw.size() % sizeof(T) != 0)
            throw CommError(CommError::Kind::SizeMismatch, "recv(vector)",
                            rank_, src, tag,
                            (raw.size() / sizeof(T) + 1) * sizeof(T),
                            raw.size());
        std::size_t const count = raw.size() / sizeof(T);
        if (!v.empty() && v.size() != count)  // pre-sized must match
            throw CommError(CommError::Kind::SizeMismatch, "recv(vector)",
                            rank_, src, tag, v.size() * sizeof(T),
                            raw.size());
        v.resize(count);
        if (!raw.empty())
            std::memcpy(v.data(), raw.data(), raw.size());
    }

    template <typename T>
    Request irecv_raw(T* data, std::size_t count, int src, int tag) {
        static_assert(std::is_trivially_copyable_v<T>);
        tbp_require(0 <= src && src < size());
        auto op = std::make_shared<detail::RecvOp>();
        op->src = src;
        op->tag = tag;
        op->data = reinterpret_cast<std::byte*>(data);
        op->bytes = count * sizeof(T);
        post_recv(op);
        return Request(this, std::move(op));
    }

    void push_message(int src, int dst, int tag, std::vector<std::byte> buf);
    void recv_bytes(std::byte* data, std::size_t bytes, int src, int tag);
    void recv_bytes_dyn(std::vector<std::byte>& out, int src, int tag);
    void post_recv(std::shared_ptr<detail::RecvOp> op);

    /// Block until the already-posted op completes; charges wait time,
    /// notifies other waiters, and rethrows the op's error. In fault mode
    /// the wait is sliced with exponential backoff and attempts recovery
    /// (re-driving retained copies) on each timeout.
    void wait_posted(std::shared_ptr<detail::RecvOp> const& op);

    /// Fault-mode body of wait_posted; caller holds lk on s_->mtx.
    void wait_posted_fault(std::unique_lock<std::mutex>& lk,
                           std::shared_ptr<detail::RecvOp> const& op);

    /// Complete op in error and unlink it from pending_ (caller holds
    /// s_->mtx).
    void fail_op_locked(detail::RecvOp& op, CommError::Kind kind,
                        std::size_t actual);

    /// Copy a verified payload into op's destination, or record a
    /// dimensioned SizeMismatch error; completes the op either way.
    /// Caller holds s_->mtx.
    void deliver_locked(detail::RecvOp& op, std::byte const* p,
                        std::size_t n);

    /// Match pending receives (post order) against arrived messages.
    /// Caller holds s_->mtx. Returns true if any receive completed.
    bool progress_locked();

    /// Fault-mode matcher for one pending op: in-sequence delivery with
    /// duplicate absorption, embargo honoring, and checksum recovery.
    /// Returns true if op completed (possibly in error). Caller holds
    /// s_->mtx.
    bool match_fault_locked(detail::RecvOp& op);

    // Collective algorithm bodies (defined in collectives.hh).
    template <typename T>
    void bcast_linear(T* data, std::size_t count, int root);
    template <typename T>
    void bcast_tree(T* data, std::size_t count, int root);
    template <typename T, typename OpF>
    void reduce_linear(T* data, std::size_t count, OpF const& op, int root);
    template <typename T, typename OpF>
    void reduce_tree(T* data, std::size_t count, OpF const& op, int root);
    template <typename T, typename OpF>
    void allreduce_recdouble(T* data, std::size_t count, OpF const& op);
    template <typename T, typename OpF>
    void allreduce_ring(T* data, std::size_t count, OpF const& op);
    template <typename T>
    void allgather_linear(T const* sendbuf, std::size_t count, T* recvbuf);
    template <typename T>
    void allgather_tree(T const* sendbuf, std::size_t count, T* recvbuf);
    template <typename T>
    void allgather_ring(T const* sendbuf, std::size_t count, T* recvbuf);

    void count_collective() {
        std::lock_guard<std::mutex> lk(s_->mtx);
        ++stats_.collectives;
    }

    int rank_;
    std::shared_ptr<detail::Shared> s_;
    coll::Config cfg_;

    // Pending receives in post order; guarded by s_->mtx (so the progress
    // loop, blocking receives, and engine-worker comm tasks can share one
    // Communicator without extra locks).
    std::deque<std::shared_ptr<detail::RecvOp>> pending_;
    CommStats stats_;  // guarded by s_->mtx
};

/// A set of virtual ranks executing an SPMD function on threads.
class World {
public:
    explicit World(int nranks);

    int size() const { return nranks_; }

    /// Collective configuration inherited by every Communicator of the next
    /// run(). Algo::Linear for every collective selects the oracle paths.
    void set_coll_config(coll::Config cfg) { shared_->coll_cfg = cfg; }
    coll::Config const& coll_config() const { return shared_->coll_cfg; }

    /// Install a seeded chaos plan + retry policy for subsequent run()s.
    /// Installing an inert (all-rates-zero) plan still routes every p2p
    /// message through the reliable enveloped transport — bench_resilience
    /// uses that to price the machinery against the bare fast path.
    void set_fault(fault::FaultPlan plan, fault::RetryConfig retry = {}) {
        shared_->fault = std::make_shared<fault::FaultInjector>(plan, retry);
    }
    void clear_fault() { shared_->fault.reset(); }
    fault::FaultInjector const* fault() const { return shared_->fault.get(); }

    /// Run fn(comm) on every rank; returns when all ranks finish.
    /// Rethrows the first exception raised on any rank.
    void run(std::function<void(Communicator&)> const& fn);

    /// Per-rank / aggregate traffic counters of the last run().
    CommStats stats(int rank) const {
        tbp_require(0 <= rank && rank < nranks_);
        return shared_->rank_stats[static_cast<std::size_t>(rank)];
    }
    CommStats total_stats() const {
        CommStats t;
        for (auto const& s : shared_->rank_stats)
            t += s;
        return t;
    }

    /// Messages left unreceived at the end of the last run() (0 for a
    /// correctly matched program; nonzero flags a send/recv mismatch).
    /// Fault mode: duplicate/re-driven residue whose sequence number was
    /// already delivered is *not* a leak (see teardown_absorbed()).
    std::uint64_t leaked_messages() const { return leaked_; }

    /// Enveloped leftovers classified as harmless at the end of the last
    /// run(): copies of messages the receiver had already delivered
    /// (injected duplicates and re-driven embargoed copies that lost the
    /// race against recovery).
    std::uint64_t teardown_absorbed() const { return teardown_absorbed_; }

private:
    int nranks_;
    std::uint64_t leaked_ = 0;
    std::uint64_t teardown_absorbed_ = 0;
    std::shared_ptr<detail::Shared> shared_;
};

// --- Request inline bodies (need Communicator) -----------------------------

inline bool Request::test() {
    if (!op_)
        return true;
    if (!op_->done) {
        bool completed;
        {
            std::lock_guard<std::mutex> lk(comm_->s_->mtx);
            completed = comm_->progress_locked();
            if (!op_->done && !completed)
                return false;
        }
        if (completed)
            comm_->s_->cv.notify_all();  // other waiters may have finished
    }
    if (op_->done && op_->error)
        std::rethrow_exception(op_->error);
    return op_->done;
}

inline bool Request::done() const { return !op_ || op_->done; }

inline void Request::wait() {
    if (!op_)
        return;
    if (op_->done) {
        if (op_->error)
            std::rethrow_exception(op_->error);
        return;
    }
    comm_->wait_posted(op_);
}

inline void Request::drain() noexcept {
    if (!op_ || (op_->done && !op_->error))
        return;
    try {
        wait();
    } catch (...) {
        // Absorbed by design: the guard's job is to keep teardown safe
        // (the irecv buffer must not be freed under the transport) while
        // still leaving a trace for perf::fault_report. Clearing the op's
        // error makes drain idempotent (move-assign drains, then the
        // destructor drains again).
        std::lock_guard<std::mutex> lk(comm_->s_->mtx);
        ++comm_->stats_.fault.recovery_errors;
        op_->error = nullptr;
    }
}

}  // namespace tbp::comm

#include "comm/collectives.hh"

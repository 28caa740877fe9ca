#include "comm/communicator.hh"

#include <algorithm>
#include <chrono>
#include <thread>

namespace tbp::comm {

void Communicator::push_message(int src, int dst, int tag,
                                std::vector<std::byte> buf) {
    fault::FaultInjector* const inj = s_->fault.get();
    if (inj) {
        // Straggler model: the slow rank pays its tax outside the lock so
        // it delays only itself, not the whole mailbox.
        double const slow = inj->slowdown_seconds(src);
        if (slow > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(slow));
            std::lock_guard<std::mutex> lk(s_->mtx);
            ++stats_.fault.slowdowns;
        }
    }
    bool poisoned = false;
    {
        std::lock_guard<std::mutex> lk(s_->mtx);
        if (inj && inj->poison_check(src)) {
            poisoned = true;  // fail-stop below, after waking waiters
        } else {
            // Counters record the *logical* payload traffic only — never
            // envelopes, duplicates, or re-driven copies — so byte counts
            // stay model-exact with a plan installed.
            ++stats_.sends;
            stats_.bytes_sent += buf.size();
            auto& q = s_->channels[{src, dst, tag}].messages;
            if (!inj) {
                q.push_back({std::move(buf), 0});
            } else {
                std::uint64_t seq = 0;
                auto wire = inj->envelope(src, dst, tag, buf, seq);
                inj->retain(src, dst, tag, seq, wire);
                fault::FaultAction const act =
                    inj->plan().action(src, dst, tag, seq);
                if (act.drop) {
                    ++stats_.fault.injected_drops;  // never enters the queue
                } else if (act.corrupt && !buf.empty()) {
                    ++stats_.fault.injected_corrupts;
                    inj->corrupt_payload(wire, seq);
                    q.push_back({std::move(wire), 0});
                } else if (act.duplicate) {
                    ++stats_.fault.injected_dups;
                    q.push_back({wire, 0});
                    q.push_back({std::move(wire), 0});
                } else if (act.delay_ms > 0) {
                    ++stats_.fault.injected_delays;
                    q.push_back(
                        {std::move(wire), wall_time() + act.delay_ms / 1e3});
                } else {
                    q.push_back({std::move(wire), 0});
                }
            }
        }
    }
    // Wake receivers in every case: after a poison they must re-evaluate
    // sender_gone instead of sleeping out their full timeout slice.
    s_->cv.notify_all();
    if (poisoned)
        throw RankFailedError(src, inj->plan().poison_after_sends);
}

void Communicator::deliver_locked(detail::RecvOp& op, std::byte const* p,
                                  std::size_t n) {
    if (op.dyn) {
        op.dyn->assign(p, p + n);
        ++stats_.recvs;
        stats_.bytes_recv += n;
    } else if (n != op.bytes) {
        op.error = std::make_exception_ptr(
            CommError(CommError::Kind::SizeMismatch, "recv", rank_, op.src,
                      op.tag, op.bytes, n));
    } else {
        if (n != 0)
            std::memcpy(op.data, p, n);
        ++stats_.recvs;
        stats_.bytes_recv += n;
    }
    op.done = true;
}

bool Communicator::match_fault_locked(detail::RecvOp& op) {
    fault::FaultInjector& inj = *s_->fault;
    auto ch = s_->channels.find(std::make_tuple(op.src, rank_, op.tag));
    if (ch == s_->channels.end())
        return false;
    auto& q = ch->second.messages;
    std::uint64_t const want = inj.expected_seq(op.src, rank_, op.tag);
    double const now = wall_time();

    for (auto m = q.begin(); m != q.end();) {
        std::uint64_t seq = 0, sum = 0;
        std::size_t payload_bytes = 0;
        if (!fault::FaultInjector::parse(m->bytes, seq, sum,
                                         payload_bytes)) {
            // A bare (non-enveloped) message under an installed plan means
            // the plan was installed mid-world — a program error, reported
            // with coordinates rather than silently delivered.
            op.error = std::make_exception_ptr(
                CommError(CommError::Kind::ChecksumError, "recv", rank_,
                          op.src, op.tag, op.bytes, m->bytes.size()));
            op.done = true;
            q.erase(m);
            return true;
        }
        if (seq < want) {
            // Duplicate of an already-delivered message (injected dup or a
            // re-driven copy that lost the race): absorb idempotently.
            ++stats_.fault.dup_absorbed;
            m = q.erase(m);
            continue;
        }
        if (seq != want || m->release > now) {
            // Out of order (a gap left by a drop) or still embargoed: the
            // in-sequence contract says skip, the timed wait re-polls.
            ++m;
            continue;
        }
        std::byte const* payload = m->bytes.data() + fault::kHeaderBytes;
        if (!fault::FaultInjector::verify(m->bytes, sum)) {
            ++stats_.fault.checksum_failures;
            std::vector<std::byte> const* clean =
                inj.retained_copy(op.src, rank_, op.tag);
            if (clean == nullptr) {
                // Unrecoverable: corrupted on the wire and the clean copy
                // is gone (cannot happen while the GC runs on acknowledge,
                // but fail dimensioned rather than deliver garbage).
                op.error = std::make_exception_ptr(CommError(
                    CommError::Kind::ChecksumError, "recv", rank_, op.src,
                    op.tag, op.bytes, payload_bytes));
                op.done = true;
            } else {
                ++stats_.fault.resends;
                deliver_locked(op, clean->data() + fault::kHeaderBytes,
                               clean->size() - fault::kHeaderBytes);
            }
        } else {
            deliver_locked(op, payload, payload_bytes);
        }
        q.erase(m);
        inj.acknowledge(op.src, rank_, op.tag, want);
        return true;
    }
    return false;
}

bool Communicator::progress_locked() {
    bool const faulty = s_->fault != nullptr;
    bool any = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
        detail::RecvOp& op = **it;
        if (faulty) {
            if (!match_fault_locked(op)) {
                ++it;
                continue;
            }
            any = true;
            it = pending_.erase(it);
            continue;
        }
        auto ch = s_->channels.find(std::make_tuple(op.src, rank_, op.tag));
        if (ch == s_->channels.end() || ch->second.messages.empty()) {
            ++it;
            continue;
        }
        auto& msg = ch->second.messages.front().bytes;
        // The message carries its size: a count mismatch between the send
        // and the posted receive is a program error, surfaced as a
        // dimensioned CommError on the waiter (the message is consumed so
        // later receives on the channel are not wedged behind it).
        if (op.dyn) {
            *op.dyn = std::move(msg);
            stats_.bytes_recv += op.dyn->size();
            ++stats_.recvs;
            op.done = true;
        } else if (msg.size() != op.bytes) {
            op.error = std::make_exception_ptr(
                CommError(CommError::Kind::SizeMismatch, "recv", rank_,
                          op.src, op.tag, op.bytes, msg.size()));
            op.done = true;
        } else {
            if (!msg.empty())
                std::memcpy(op.data, msg.data(), msg.size());
            stats_.bytes_recv += msg.size();
            ++stats_.recvs;
            op.done = true;
        }
        ch->second.messages.pop_front();
        any = true;
        it = pending_.erase(it);
    }
    return any;
}

void Communicator::progress() {
    bool completed;
    {
        std::lock_guard<std::mutex> lk(s_->mtx);
        completed = progress_locked();
    }
    if (completed)
        s_->cv.notify_all();
}

void Communicator::post_recv(std::shared_ptr<detail::RecvOp> op) {
    bool completed;
    {
        std::lock_guard<std::mutex> lk(s_->mtx);
        pending_.push_back(std::move(op));
        completed = progress_locked();  // the message may already be here
    }
    if (completed)
        s_->cv.notify_all();
}

void Communicator::fail_op_locked(detail::RecvOp& op, CommError::Kind kind,
                                  std::size_t actual) {
    op.error = std::make_exception_ptr(
        CommError(kind, "recv", rank_, op.src, op.tag, op.bytes, actual));
    op.done = true;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->get() == &op) {
            pending_.erase(it);
            break;
        }
    }
}

void Communicator::wait_posted_fault(
    std::unique_lock<std::mutex>& lk,
    std::shared_ptr<detail::RecvOp> const& op) {
    (void)lk;  // held on entry; wait_for releases/reacquires it
    fault::FaultInjector& inj = *s_->fault;
    fault::RetryConfig const& rc = inj.retry();
    double slice = std::max(rc.timeout_ms, 0.1) / 1e3;
    double const deadline = wall_time() + rc.deadline_seconds();
    int rounds = 0;

    for (;;) {
        progress_locked();
        if (op->done)
            return;
        if (inj.sender_gone(op->src, rank_, op->tag)) {
            // The sender fail-stopped before producing this message and no
            // retained copy exists: it can never arrive.
            fail_op_locked(*op, CommError::Kind::RankDead, 0);
            return;
        }
        double const now = wall_time();
        if (now >= deadline || rounds > rc.retry_max) {
            fail_op_locked(*op, CommError::Kind::Timeout, 0);
            return;
        }
        bool const completed = s_->cv.wait_for(
            lk, std::chrono::duration<double>(
                    std::min(slice, deadline - now)),
            [&] {
                progress_locked();
                return op->done.load();
            });
        if (completed)
            return;
        // Timed out with the expected message undeliverable. If the sender
        // already produced it, re-drive the retained clean copy (a drop
        // left a gap; re-posting is idempotent — any duplicate that shows
        // up later is absorbed by sequence number). No retained copy means
        // the sender is merely slow: back off and keep waiting.
        if (auto const* clean = inj.retained_copy(op->src, rank_, op->tag)) {
            ++stats_.fault.resends;
            s_->channels[{op->src, rank_, op->tag}].messages.push_back(
                {*clean, 0});
            progress_locked();
            if (op->done)
                return;
        }
        ++rounds;
        slice *= rc.backoff;
    }
}

void Communicator::wait_posted(std::shared_ptr<detail::RecvOp> const& op) {
    if (!op->done) {
        Timer t;
        {
            std::unique_lock<std::mutex> lk(s_->mtx);
            if (s_->fault) {
                wait_posted_fault(lk, op);
            } else {
                s_->cv.wait(lk, [&] {
                    progress_locked();
                    return op->done.load();
                });
            }
            stats_.wait_seconds += t.elapsed();
        }
        // Our progress passes may have completed other pending receives
        // that a different thread of this rank is waiting on.
        s_->cv.notify_all();
    }
    if (op->error)
        std::rethrow_exception(op->error);
}

void Communicator::recv_bytes(std::byte* data, std::size_t bytes, int src,
                              int tag) {
    auto op = std::make_shared<detail::RecvOp>();
    op->src = src;
    op->tag = tag;
    op->data = data;
    op->bytes = bytes;
    {
        std::lock_guard<std::mutex> lk(s_->mtx);
        pending_.push_back(op);
    }
    wait_posted(op);
}

void Communicator::recv_bytes_dyn(std::vector<std::byte>& out, int src,
                                  int tag) {
    auto op = std::make_shared<detail::RecvOp>();
    op->src = src;
    op->tag = tag;
    op->dyn = &out;
    {
        std::lock_guard<std::mutex> lk(s_->mtx);
        pending_.push_back(op);
    }
    wait_posted(op);
}

void Communicator::barrier() {
    Timer t;
    std::unique_lock<std::mutex> lk(s_->mtx);
    ++stats_.collectives;
    int const sense = s_->barrier_sense;
    if (++s_->barrier_count == s_->nranks) {
        s_->barrier_count = 0;
        s_->barrier_sense ^= 1;
        s_->cv.notify_all();
    } else if (!s_->fault) {
        s_->cv.wait(lk, [&] { return s_->barrier_sense != sense; });
        stats_.wait_seconds += t.elapsed();
    } else {
        // Fault mode: a barrier must never outlive the retry budget — if a
        // poisoned rank can no longer arrive, the survivors report instead
        // of hanging. The contribution is withdrawn before erroring so the
        // barrier state stays consistent for the remaining ranks.
        double const deadline =
            wall_time() + s_->fault->retry().deadline_seconds();
        double slice = std::max(s_->fault->retry().timeout_ms, 0.1) / 1e3;
        while (s_->barrier_sense == sense) {
            double const now = wall_time();
            if (now >= deadline) {
                int const arrived = s_->barrier_count;
                --s_->barrier_count;
                throw CommError(CommError::Kind::BarrierTimeout, "barrier",
                                rank_, -1, 0,
                                static_cast<std::size_t>(s_->nranks),
                                static_cast<std::size_t>(arrived));
            }
            s_->cv.wait_for(
                lk, std::chrono::duration<double>(
                        std::min(slice, deadline - now)),
                [&] { return s_->barrier_sense != sense; });
            slice *= s_->fault->retry().backoff;
        }
        stats_.wait_seconds += t.elapsed();
    }
}

World::World(int nranks) : nranks_(nranks) {
    tbp_require(nranks >= 1);
    shared_ = std::make_shared<detail::Shared>();
    shared_->nranks = nranks;
    shared_->rank_stats.resize(static_cast<std::size_t>(nranks));
}

void World::run(std::function<void(Communicator&)> const& fn) {
    shared_->rank_stats.assign(static_cast<std::size_t>(nranks_), CommStats{});
    leaked_ = 0;
    teardown_absorbed_ = 0;
    if (shared_->fault)
        shared_->fault->begin_run();

    std::vector<std::thread> threads;
    std::mutex err_mtx;
    std::exception_ptr first_error;

    threads.reserve(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
        threads.emplace_back([&, r] {
            Communicator comm(r, shared_);
            try {
                fn(comm);
            } catch (...) {
                std::lock_guard<std::mutex> lk(err_mtx);
                if (!first_error)
                    first_error = std::current_exception();
            }
            // Flush this rank's counters (also on error, so a partial run
            // still reports what it moved).
            shared_->rank_stats[static_cast<std::size_t>(r)] = comm.stats();
        });
    }
    for (auto& t : threads)
        t.join();

    // Fresh channel state for the next run; count anything left behind so
    // tests can assert the program matched every send with a receive. In
    // fault mode, residue of an already-delivered sequence number
    // (injected duplicates, re-driven copies that lost the race) is
    // recovery exhaust, not a leak.
    {
        std::lock_guard<std::mutex> lk(shared_->mtx);
        for (auto const& [key, ch] : shared_->channels) {
            for (auto const& m : ch.messages) {
                if (shared_->fault
                    && shared_->fault->teardown_absorbable(
                        std::get<0>(key), std::get<1>(key),
                        std::get<2>(key), m.bytes))
                    ++teardown_absorbed_;
                else
                    ++leaked_;
            }
        }
        shared_->channels.clear();
        shared_->barrier_count = 0;
        shared_->barrier_sense = 0;
    }

    if (first_error)
        std::rethrow_exception(first_error);
}

}  // namespace tbp::comm

// Per-thread reusable buffer arenas for the kernel layer.
//
// The blocked GEMM driver needs two pack buffers per call, the Householder
// appliers up to three small workspaces, herk one and the recursive QR
// panels one for their T-factor merges; allocating them per tile task would
// put malloc on the hot path of every worker. Each thread instead keeps one
// arena of named slots that grow monotonically and are reused across calls
// — after warm-up, tile kernels (the panel factorizations and the naive
// appliers included) perform zero allocations.
//
// Buffers are 64-byte aligned (aligned_vector) so packed panels start on
// cache-line/vector boundaries. Slots are per-thread, so no synchronization
// is needed; a kernel must not call another kernel that reuses the same slot
// while its own pointer is live (the slot assignments below keep the GEMM
// pack slots disjoint from the Householder workspace slots for exactly that
// reason: the appliers hold W0/W1/W2 and herk W0 across inner gemm
// calls; the QR panels take W0 only between their applier calls).

#pragma once

#include <array>
#include <cstddef>

#include "common/aligned.hh"

namespace tbp::blas::kernel {

enum Slot : int {
    kPackA = 0,   ///< packed A panel (gemm driver only)
    kPackB = 1,   ///< packed B panel (gemm driver only)
    kWork0 = 2,   ///< applier W/S workspace, herk diagonal block (held
                  ///< across gemm calls)
    kWork1 = 3,   ///< applier second workspace
    kWork2 = 4,   ///< applier's dense copy of its triangular reflector block
    kNumSlots = 5
};

template <typename T>
class Arena {
public:
    /// Pointer to at least `count` elements in `slot`, reused across calls.
    T* get(Slot slot, std::size_t count) {
        auto& buf = bufs_[slot];
        if (buf.size() < count)
            buf.resize(count);
        return buf.data();
    }

private:
    std::array<aligned_vector<T>, kNumSlots> bufs_;
};

/// The calling thread's arena for scalar type T.
template <typename T>
Arena<T>& tls_arena() {
    thread_local Arena<T> arena;
    return arena;
}

}  // namespace tbp::blas::kernel

// Measured-flop accounting for the tile kernels.
//
// Every public blas:: entry point (gemm, herk, trsm, potrf, geqrf,
// unmqr, tsqrt, tsmqr, ttqrt, ttmqr) charges its real-flop count here
// exactly once per call, regardless of which implementation path
// (micro-kernel or naive) ran. The perf layer (sched_report, the driver,
// the benches) snapshots the counter around a region of interest and
// divides by wall time to report the *achieved* GFLOP/s next to the
// machine model's assumed rates — the measured number that calibrates
// cost_model's cpu_core_gflops.
//
// Charges are additionally bucketed per precision rung (double / float /
// simulated-bf16, see prec::charge_prec): the bucket is chosen from the
// kernel's scalar type and the thread's execution-time gemm mode, so a
// float kernel running under an active bf16 mode charges the bf16 bucket.
// Each charge truncates its double-valued formula to uint64 exactly once
// and adds the same truncated value to both the total and its bucket,
// keeping total == sum(buckets) an exact invariant that the precision-aware
// cost model replays charge-by-charge.
//
// The counters are plain atomics, incremented once per tile-kernel call
// (microseconds of work at minimum), so contention is negligible.

#pragma once

#include <atomic>
#include <cstdint>

#include "common/precision.hh"

namespace tbp::blas::kernel {

inline std::atomic<std::uint64_t>& flop_counter() {
    static std::atomic<std::uint64_t> counter{0};
    return counter;
}

inline std::atomic<std::uint64_t>& flop_counter(prec::Prec p) {
    static std::atomic<std::uint64_t> counters[prec::kNumPrec]{};
    return counters[static_cast<int>(p)];
}

/// Charge `fl` real flops (callers pass complex-weighted counts already)
/// to the total and to the bucket for precision `p`.
inline void count_flops(double fl, prec::Prec p) {
    if (fl > 0) {
        auto const units = static_cast<std::uint64_t>(fl);
        flop_counter().fetch_add(units, std::memory_order_relaxed);
        flop_counter(p).fetch_add(units, std::memory_order_relaxed);
    }
}

/// Total real flops performed by tile kernels since start (or last reset).
inline double flops_performed() {
    return static_cast<double>(flop_counter().load(std::memory_order_relaxed));
}

/// Real flops charged to precision bucket `p` since start (or last reset).
inline double flops_performed(prec::Prec p) {
    return static_cast<double>(
        flop_counter(p).load(std::memory_order_relaxed));
}

inline void reset_flops() {
    flop_counter().store(0, std::memory_order_relaxed);
    for (int p = 0; p < prec::kNumPrec; ++p)
        flop_counter(static_cast<prec::Prec>(p))
            .store(0, std::memory_order_relaxed);
}

}  // namespace tbp::blas::kernel

// Precision-ladder primitives: rung/request enums, the thread-local gemm-mode
// context that carries "execute float kernels as simulated bf16" from task
// submission to the worker thread that runs the task, and the bf16
// round-to-nearest-even truncation helpers used by the pack layer.
//
// Two thread-local slots exist:
//   * ambient_gemm_mode — set by the algorithm layer (RAII ScopedGemmMode)
//     around task *submission*; the runtime engine captures it into each
//     Task so stolen execution keeps the tag.
//   * exec_gemm_mode — set by the engine worker (RAII ExecModeScope) around
//     the task body; the BLAS kernel layer reads it to decide whether a
//     float gemm truncates its packed operands to bf16, and the flop
//     counters read it to pick the per-precision accounting bucket.
// Direct (engine-less) kernel calls, e.g. the SPMD distributed path, install
// ExecModeScope themselves.

#pragma once

#include <complex>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace tbp::prec {

/// Accounting bucket for kernel flops and staged bytes. Float-typed kernels
/// executing under an active bf16 gemm mode charge the Bf16 bucket; native
/// float charges Float; double-typed work always charges Double.
enum class Prec : std::uint8_t { Double = 0, Float = 1, Bf16 = 2 };

inline constexpr int kNumPrec = 3;

inline char const* prec_name(Prec p) {
    switch (p) {
        case Prec::Double: return "double";
        case Prec::Float: return "float";
        case Prec::Bf16: return "bf16";
    }
    return "?";
}

/// Execution mode for float-typed packed gemms. Native leaves operands
/// untouched; Bf16 truncates both packed operands to bf16 (fp32
/// accumulation).
enum class GemmMode : std::uint8_t { Native = 0, Bf16 = 1 };

inline char const* gemm_mode_name(GemmMode m) {
    switch (m) {
        case GemmMode::Native: return "native";
        case GemmMode::Bf16: return "bf16";
    }
    return "?";
}

namespace detail {
inline GemmMode& ambient_slot() {
    thread_local GemmMode m = GemmMode::Native;
    return m;
}
inline GemmMode& exec_slot() {
    thread_local GemmMode m = GemmMode::Native;
    return m;
}
}  // namespace detail

inline GemmMode ambient_gemm_mode() { return detail::ambient_slot(); }
inline GemmMode exec_gemm_mode() { return detail::exec_slot(); }

/// Installed by the algorithm layer around task submission; the engine
/// captures the ambient mode into each submitted task.
class ScopedGemmMode {
public:
    explicit ScopedGemmMode(GemmMode m) : prev_(detail::ambient_slot()) {
        detail::ambient_slot() = m;
    }
    ~ScopedGemmMode() { detail::ambient_slot() = prev_; }
    ScopedGemmMode(ScopedGemmMode const&) = delete;
    ScopedGemmMode& operator=(ScopedGemmMode const&) = delete;

private:
    GemmMode prev_;
};

/// Installed by the engine worker (or a direct caller, e.g. the SPMD
/// distributed path) around kernel execution.
class ExecModeScope {
public:
    explicit ExecModeScope(GemmMode m) : prev_(detail::exec_slot()) {
        detail::exec_slot() = m;
    }
    ~ExecModeScope() { detail::exec_slot() = prev_; }
    ExecModeScope(ExecModeScope const&) = delete;
    ExecModeScope& operator=(ExecModeScope const&) = delete;

private:
    GemmMode prev_;
};

/// bf16 truncation with round-to-nearest-even: keep the top 16 bits of the
/// IEEE-754 binary32 pattern, rounding the discarded mantissa half. NaN/Inf
/// pass through untouched (the RNE carry could otherwise walk a NaN payload
/// into the sign bit).
inline float bf16_round(float x) {
    std::uint32_t u;
    std::memcpy(&u, &x, sizeof(u));
    if ((u & 0x7f800000u) == 0x7f800000u)
        return x;  // NaN or Inf
    u += 0x7fffu + ((u >> 16) & 1u);
    u &= 0xffff0000u;
    float r;
    std::memcpy(&r, &u, sizeof(r));
    return r;
}

/// Value transform applied at pack time (see blas/kernel/pack.hh).
enum class PackTrans : std::uint8_t { None = 0, Bf16Hi = 1 };

inline float apply_pack_trans(PackTrans t, float x) {
    switch (t) {
        case PackTrans::None: return x;
        case PackTrans::Bf16Hi: return bf16_round(x);
    }
    return x;
}

/// Accounting bucket for a kernel charge of scalar type T under the current
/// execution mode: float-kind charges Bf16 while a bf16 gemm mode is active
/// on this thread, Float otherwise; double-kind always charges Double.
template <typename T>
inline Prec charge_prec() {
    if constexpr (std::is_same_v<T, float>
                  || std::is_same_v<T, std::complex<float>>) {
        return exec_gemm_mode() == GemmMode::Native ? Prec::Float : Prec::Bf16;
    } else {
        return Prec::Double;
    }
}

}  // namespace tbp::prec

// Precision-ladder policy for QDWH: which rung (simulated bf16 / float /
// native) each iteration runs on, decided from the interval parameter l_k.
//
// The QDWH weight recurrence
//   l_{k+1} = l_k (a + b l_k^2) / (1 + c l_k^2)
// is a pure function of l_0, independent of the matrix data, so the entire
// rung schedule can be *planned* before the loop runs: plan_rungs simulates
// the recurrence in double and assigns a rung per iteration. The same plan
// drives the shared-memory ladder, the distributed ladder, and the
// precision-aware cost model — one source of determinism, which is what
// makes the adaptive schedule reproducible bit-for-bit at fixed inputs and
// identical across process-grid shapes.
//
// Rung admissibility: an iteration executed at unit roundoff u computes its
// output with a backward error of order u, so the singular values of the
// computed iterate can sit up to ~u below the bound l_{k+1} the recurrence
// promises. The schedule (weights, branch selection, iteration count) is
// valid only while that slack is negligible, so a rung is admissible for
// iteration k iff
//
//   u_rung <= kRungSafety * l_{k+1}        (exit bound, not entering l_k)
//
// This puts float (u = 2^-24) on essentially every iteration — even the
// first iterations of a kappa = 1e16 run exit with l_{k+1} ~ 1e-5 — and
// puts bf16 (u = 2^-9) on the mid-schedule iterations where the interval
// has already contracted to l_{k+1} >~ 0.2. Running bf16 *early* (tiny
// l_{k+1}) is exactly wrong: the 2^-9 perturbation swamps the sigma_min
// bound, the executed iterate decouples from the planned recurrence, and
// the loop burns straggler iterations the plan never priced.
//
// Tail: the last kTailNative planned iterations (and every conv-driven
// straggler) run native. bf16 is additionally barred from the kTailNative+1
// iterations before the end: one native Halley step cubes a float-level
// error ((2^-24)^3 << eps64) but not a bf16-level one ((2^-9)^3 ~ 1e-8),
// so the iteration feeding the native tail must be float or better. The
// H = U^H A polish is always native.
//
// The bf16 rungs do commit a backward perturbation of order 2^-9 that later
// native iterations cannot undo (they converge to the polar factor of the
// perturbed iterate): the adaptive ladder's contract is native
// *orthogonality* with a backward error at the lowest executed rung's
// precision — the standard mixed-precision polar trade. The Float request
// has the same contract at float level: native orthogonality, backward
// error ~eps32 (a native backward error needs the Native request).

#pragma once

#include <cmath>
#include <complex>
#include <vector>

#include "common/precision.hh"

namespace tbp::prec {

/// Shadow scalar: the float-kind type one rung below T. Float-kind types
/// shadow as themselves (their low rung is bf16 mode on native buffers).
template <typename T>
struct shadow {
    using type = T;
};
template <>
struct shadow<double> {
    using type = float;
};
template <>
struct shadow<std::complex<double>> {
    using type = std::complex<float>;
};

template <typename T>
using shadow_t = typename shadow<T>::type;

/// Requested precision behavior for a polar-decomposition run.
///   Native   — every iteration in the matrix's own scalar type (the
///              pre-ladder behavior).
///   Float    — all iterations on the float rung except the native tail.
///   Bf16     — all iterations on the simulated-bf16 rung except the tail.
///   Adaptive — rung chosen per iteration from l_k (the ladder proper).
enum class Precision : std::uint8_t {
    Native = 0,
    Float = 1,
    Bf16 = 2,
    Adaptive = 3,
};

inline char const* precision_name(Precision p) {
    switch (p) {
        case Precision::Native: return "native";
        case Precision::Float: return "float";
        case Precision::Bf16: return "bf16";
        case Precision::Adaptive: return "adaptive";
    }
    return "?";
}

/// Unit roundoff of the simulated-bf16 rung (8-bit significand).
inline constexpr double kBf16Roundoff = 0x1p-9;
/// Unit roundoff of the float rung (24-bit significand).
inline constexpr double kFloatRoundoff = 0x1p-24;

/// Adaptive admissibility safety factor: a rung with unit roundoff u may
/// run iteration k iff u <= kRungSafety * l_{k+1}, i.e. the iteration's own
/// backward error must be small against the sigma_min bound it is
/// scheduled to establish (see the header comment).
inline constexpr double kRungSafety = 1e-2;
/// The last kTailNative planned iterations (and every conv-driven iteration
/// beyond the plan) run on the native rung.
inline constexpr int kTailNative = 1;

struct PrecisionPolicy {
    Precision request = Precision::Native;
    /// Test hook: treat the first attempt of this iteration index (0-based)
    /// as a failed low-precision Cholesky and take the fallback promotion
    /// path. The forced failure happens before any work is submitted, so
    /// flop accounting stays exact. -1 disables.
    int force_fallback_iter = -1;
};

/// Dynamic QDWH weights and the l-update, in double (Algorithm 1 lines
/// 23-27). The only (a, b, c) formula: the shared-memory and distributed
/// QDWH loops and plan_rungs all evaluate this function.
struct QdwhWeights {
    double a = 0, b = 0, c = 0;
    double li_next = 0;
    bool qr = false;  ///< c > 100 selects the QR-based iteration
};

inline QdwhWeights qdwh_weights(double li) {
    QdwhWeights w;
    double const l2 = li * li;
    double const dd = std::cbrt(4.0 * (1.0 - l2) / (l2 * l2));
    double const sqd = std::sqrt(1.0 + dd);
    w.a = sqd + std::sqrt(8.0 - 4.0 * dd + 8.0 * (2.0 - l2) / (l2 * sqd)) / 2.0;
    w.b = (w.a - 1.0) * (w.a - 1.0) / 4.0;
    w.c = w.a + w.b - 1.0;
    w.li_next = li * (w.a + w.b * l2) / (1.0 + w.c * l2);
    w.qr = w.c > 100.0;
    return w;
}

/// One planned iteration: entering l, weights, branch, and assigned rung.
struct RungStep {
    double li_in = 0;
    double a = 0, b = 0, c = 0;
    bool qr = false;
    Prec rung = Prec::Double;
};

/// One rung up: bf16 -> float -> native. Promoting the native rung returns
/// native (callers treat a native failure as terminal).
inline Prec promote(Prec rung, Prec native) {
    if (rung == Prec::Bf16 && native == Prec::Double)
        return Prec::Float;
    return native;
}

/// Gemm mode of a rung: simulated bf16 on the bf16 rung, plain arithmetic
/// on every other rung.
inline GemmMode gemm_mode(Prec rung) {
    return rung == Prec::Bf16 ? GemmMode::Bf16 : GemmMode::Native;
}

/// Does `request` put a run of scalar kind `native` on the ladder at all?
/// Double-kind matrices ladder for Float/Bf16/Adaptive; float-kind ones
/// only for Bf16/Adaptive (they cannot promote above float, and Adaptive
/// degenerates to mid-schedule bf16 rungs + a native float tail).
inline bool ladder_engaged(Precision request, Prec native) {
    switch (request) {
        case Precision::Native:
            return false;
        case Precision::Float:
            return native == Prec::Double;
        case Precision::Bf16:
        case Precision::Adaptive:
            return true;
    }
    return false;
}

/// Rung for one iteration under `pol`, given the iteration's *exit* bound
/// l_{k+1} and its distance from the end of the plan (0 = last planned
/// iteration) — before the native-tail override. Adaptive picks the
/// cheapest admissible rung: u_rung <= kRungSafety * li_next, with bf16
/// additionally barred from the kTailNative + 1 final iterations (the
/// single native step that follows can cube a float-level error below
/// eps64, but not a bf16-level one).
inline Prec rung_for(PrecisionPolicy const& pol, double li_next,
                     int steps_from_end, Prec native) {
    Prec r = native;
    switch (pol.request) {
        case Precision::Native:
            break;
        case Precision::Float:
            r = Prec::Float;
            break;
        case Precision::Bf16:
            r = Prec::Bf16;
            break;
        case Precision::Adaptive:
            if (steps_from_end >= kTailNative + 1
                && kBf16Roundoff <= kRungSafety * li_next)
                r = Prec::Bf16;
            else if (native == Prec::Double
                     && kFloatRoundoff <= kRungSafety * li_next)
                r = Prec::Float;
            break;
    }
    // Never "promote" above native (float-kind runs cap at Float).
    if (native == Prec::Float && r == Prec::Double)
        r = Prec::Float;
    return r;
}

/// Simulate the l-recurrence from l0 until |l - 1| < tol1 (or max_iter) and
/// assign a rung to every planned iteration. Pure double arithmetic: the
/// schedule depends only on (l0, tol1, max_iter, policy), never on matrix
/// data, rank count, or scheduling order. Iterations the runtime executes
/// beyond the plan (convergence-norm stragglers) are native by contract.
inline std::vector<RungStep> plan_rungs(double l0, double tol1, int max_iter,
                                        PrecisionPolicy const& pol,
                                        Prec native) {
    std::vector<RungStep> plan;
    std::vector<double> li_next;  // exit bound of each planned iteration
    double li = l0;
    while (std::abs(li - 1.0) >= tol1
           && static_cast<int>(plan.size()) < max_iter) {
        QdwhWeights const w = qdwh_weights(li);
        RungStep s;
        s.li_in = li;
        s.a = w.a;
        s.b = w.b;
        s.c = w.c;
        s.qr = w.qr;
        plan.push_back(s);
        li = w.li_next;
        li_next.push_back(li);
    }
    // Second pass: rung assignment needs the plan length (bf16 keeps clear
    // of the final iterations) and each iteration's exit bound.
    int const len = static_cast<int>(plan.size());
    for (int k = 0; k < len; ++k)
        plan[static_cast<std::size_t>(k)].rung =
            rung_for(pol, li_next[static_cast<std::size_t>(k)], len - 1 - k,
                     native);
    // Native tail: the last planned iterations run at native precision so
    // the iterate leaves the loop with native-accuracy orthogonality.
    for (int t = 0; t < kTailNative && t < len; ++t)
        plan[static_cast<std::size_t>(len - 1 - t)].rung = native;
    return plan;
}

/// Native accounting bucket for scalar kind: Prec::Float for float/cfloat,
/// Prec::Double otherwise.
template <typename T>
inline constexpr Prec native_prec() {
    if constexpr (std::is_same_v<T, float>
                  || std::is_same_v<T, std::complex<float>>) {
        return Prec::Float;
    } else {
        return Prec::Double;
    }
}

}  // namespace tbp::prec

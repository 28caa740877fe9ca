// Shared helpers for the figure-reproduction benches: console formatting,
// accuracy metrics, environment-variable knobs, and the machine-readable
// JSON result emitter used by the plain-main benches and the ledger.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/qdwh.hh"
#include "gen/matgen.hh"
#include "perf/qdwh_model.hh"
#include "ref/dense.hh"

namespace tbp::bench {

inline void header(char const* fig, char const* title) {
    std::printf("\n=======================================================================\n");
    std::printf("%s — %s\n", fig, title);
    std::printf("=======================================================================\n");
}

/// Paper accuracy metrics for a completed polar decomposition.
struct Accuracy {
    double orth;      ///< ||I - U^H U||_F / sqrt(n)
    double backward;  ///< ||A - U H||_F / ||A||_F
};

template <typename T>
Accuracy accuracy(ref::Dense<T> const& A, TiledMatrix<T> const& U,
                  TiledMatrix<T> const& H) {
    auto Ud = ref::to_dense(U);
    auto Hd = ref::to_dense(H);
    Accuracy a;
    a.orth = ref::orthogonality(Ud) / std::sqrt(static_cast<double>(Ud.n()));
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), Ud, Hd);
    a.backward = ref::diff_fro(UH, A) / ref::norm_fro(A);
    return a;
}

/// Predicted kernel-counter flops of one structured stacked-QR factor + Q
/// generation on W = [A; I] for an n x n A tiled with nb — the exact value
/// blas::kernel::flops_performed() must advance by (same per-call
/// truncation; see perf::stacked_qr_kernel_flops). Used by the bench JSON's
/// qr_model_match field so downstream tooling can assert exactness.
template <typename T>
double stacked_qr_model_flops(std::int64_t n, int nb) {
    auto const cols = TiledMatrix<T>::chop(n, nb);
    return perf::stacked_qr_kernel_flops(cols, cols, fma_flops<T>() / 2.0);
}

/// Threads for real-execution benches (1-core machines still want a few for
/// the dataflow scheduler to exercise).
inline int bench_threads() {
    if (char const* env = std::getenv("TBP_THREADS"))
        return std::atoi(env);
    return 3;
}

/// Sizes for real-execution benches; override with TBP_SIZES="64,128".
inline std::vector<std::int64_t> bench_sizes(std::vector<std::int64_t> dflt) {
    char const* env = std::getenv("TBP_SIZES");
    if (!env)
        return dflt;
    std::vector<std::int64_t> out;
    std::string s(env);
    size_t pos = 0;
    while (pos < s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(std::atoll(s.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
    }
    return out;
}

// --- machine-readable results ------------------------------------------------
//
// Benches that feed tooling (bench_gemm_kernel, the ledger, ...) emit their
// measurements as one JSON document:
//
//   { "machine": { "host": ..., "hw_concurrency": ..., "compiler": ... },
//     "records": [ { ... }, ... ] }
//
// Records are flat key/value objects; numbers stay numbers so downstream
// scripts never parse formatted strings.

/// One flat JSON object built field by field.
class JsonRecord {
public:
    JsonRecord& field(std::string const& key, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }
    JsonRecord& field(std::string const& key, std::int64_t v) {
        return raw(key, std::to_string(v));
    }
    JsonRecord& field(std::string const& key, int v) {
        return field(key, static_cast<std::int64_t>(v));
    }
    JsonRecord& field(std::string const& key, std::uint64_t v) {
        return raw(key, std::to_string(v));
    }
    JsonRecord& field(std::string const& key, bool v) {
        return raw(key, v ? "true" : "false");
    }
    JsonRecord& field(std::string const& key, std::string const& v) {
        return raw(key, quote(v));
    }
    JsonRecord& field(std::string const& key, char const* v) {
        return raw(key, quote(v));
    }

    std::string str() const { return "{" + body_ + "}"; }

    /// RFC 8259 string escaping: quote, backslash, the common control-char
    /// shorthands, and \u00XX for the rest of the C0 range. Anything else
    /// (including UTF-8 multibyte sequences) passes through unchanged.
    static std::string quote(std::string const& s) {
        static char const* hex = "0123456789abcdef";
        std::string out = "\"";
        for (char c : s) {
            unsigned char const u = static_cast<unsigned char>(c);
            switch (c) {
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                case '\b': out += "\\b"; break;
                case '\f': out += "\\f"; break;
                case '\n': out += "\\n"; break;
                case '\r': out += "\\r"; break;
                case '\t': out += "\\t"; break;
                default:
                    if (u < 0x20) {
                        out += "\\u00";
                        out += hex[(u >> 4) & 0xf];
                        out += hex[u & 0xf];
                    } else {
                        out += c;
                    }
            }
        }
        return out + "\"";
    }

private:
    JsonRecord& raw(std::string const& key, std::string const& val) {
        if (!body_.empty())
            body_ += ",";
        body_ += quote(key) + ":" + val;
        return *this;
    }
    std::string body_;
};

/// Collects records and writes the document (machine header + records).
class JsonEmitter {
public:
    void add(JsonRecord const& r) { records_.push_back(r.str()); }
    bool empty() const { return records_.empty(); }

    std::string document() const {
        std::ostringstream os;
        os << "{\"machine\":" << machine_record().str() << ",\"records\":[";
        for (size_t i = 0; i < records_.size(); ++i)
            os << (i ? "," : "") << records_[i];
        os << "]}\n";
        return os.str();
    }

    /// Write the document to `path`; returns false (with a stderr note) on
    /// I/O failure so benches can keep their console output regardless.
    bool write(std::string const& path) const {
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
            return false;
        }
        out << document();
        return static_cast<bool>(out);
    }

    static JsonRecord machine_record() {
        JsonRecord m;
        char host[256] = "unknown";
#if defined(__unix__) || defined(__APPLE__)
        if (gethostname(host, sizeof host) != 0)
            std::snprintf(host, sizeof host, "unknown");
        host[sizeof host - 1] = '\0';
#endif
        m.field("host", host);
        m.field("hw_concurrency",
                static_cast<std::int64_t>(std::thread::hardware_concurrency()));
#if defined(__VERSION__)
        m.field("compiler", __VERSION__);
#endif
        return m;
    }

private:
    std::vector<std::string> records_;
};

}  // namespace tbp::bench

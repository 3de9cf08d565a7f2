// Shared plumbing of the benchmark program: the seeded generator, clocks,
// order statistics, the span recorder of the traced run, and the result
// record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so that inputs depend on the
/// seed alone and never on a generator inside the program under test.
class prng {
public:
    explicit prng(std::uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, bound); bound > 0.
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }
    /// Uniform in [lo, hi].
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi) { return lo + below(hi - lo + 1); }
    bool coin() { return (next() & 1) != 0; }

private:
    std::uint64_t state_;
};

/// Derives an independent seed from a base seed and a stream index.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    prng p(seed ^ (stream * 0xd1342543de82ef95ULL));
    return p.next();
}

using steady = std::chrono::steady_clock;

inline double seconds_since(steady::time_point t0) {
    return std::chrono::duration<double>(steady::now() - t0).count();
}

inline double ms_since(steady::time_point t0) { return 1e3 * seconds_since(t0); }

/// Linear-interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double sum(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
}

/// Operations per second of timed work: the operations of one round over
/// the median round's duration (`ops` counts the operations of all the
/// rounds in `round_ms`). What runs between rounds (checks, hostile inputs)
/// is kept out, so mending or growing it cannot read as a change of the
/// program; the median keeps the host's slow moments out as `wall_s` does.
inline double ops_per_s(std::size_t ops, const std::vector<double>& round_ms) {
    const double ms = median(round_ms);
    return ms > 0 ? 1e3 * static_cast<double>(ops) / static_cast<double>(round_ms.size()) / ms : 0;
}

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// What a workload reports: the operation accounting, the correctness
/// verdict, and the values it measured by metric name. Units live in
/// BENCHMARK.json, which run.py reads.
struct result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> problems;  ///< why `correct` is false, for stderr

    void metric(const std::string& name, double value) { metrics[name] = value; }
    void fail_check(const std::string& what) {
        correct = false;
        if (problems.size() < 20) problems.push_back(what);
    }
};

/// Options every workload receives from the command line.
struct run_options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string bin_dir;  ///< where sciductiond / sciduction_run live
    std::string tmp_dir;  ///< scratch files (sockets, hostile inputs, daemon traces)
};

// ---- traced run: spans recorded around calls into the program's layers ----

/// One span: a named layer call, its interval, its parent span and the
/// operation it belongs to. Spans stay in memory until the run ends.
struct span_record {
    const char* layer;
    double start_us;
    double end_us;
    int parent;  ///< index of the enclosing span, -1 at top level
    std::uint64_t op;
};

/// Single-threaded span recorder. `enabled` is false on untraced rounds, in
/// which case scopes cost one branch.
class span_log {
public:
    bool enabled = false;
    std::vector<span_record> spans;

    double now_us() const {
        return std::chrono::duration<double, std::micro>(steady::now() - epoch_).count();
    }
    int open(const char* layer, std::uint64_t op) {
        spans.push_back({layer, now_us(), 0, current_, op});
        current_ = static_cast<int>(spans.size()) - 1;
        return current_;
    }
    void close(int idx) {
        spans[static_cast<std::size_t>(idx)].end_us = now_us();
        current_ = spans[static_cast<std::size_t>(idx)].parent;
    }
    /// Self time per layer in ms: each span's duration minus the part its
    /// direct children cover.
    std::map<std::string, double> self_ms() const;
    /// Total duration of top-level spans in ms (what some layer covers).
    double covered_ms() const;

private:
    steady::time_point epoch_ = steady::now();
    int current_ = -1;
};

/// RAII span around one call into a layer.
class scope {
public:
    scope(span_log& log, const char* layer, std::uint64_t op) : log_(log) {
        if (log_.enabled) idx_ = log_.open(layer, op);
    }
    ~scope() {
        if (idx_ >= 0) log_.close(idx_);
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

private:
    span_log& log_;
    int idx_ = -1;
};

}  // namespace perfbench

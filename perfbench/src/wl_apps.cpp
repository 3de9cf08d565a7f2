// app-loops: the paper's sciduction loops in-process, with fresh seeds per
// round — OGIS deobfuscation over all_benchmarks() at 8 bits (queries
// overlapped through the engine's async path), GameTime basis extraction
// and WCET prediction on a seeded program, invariant generation on a seeded
// circuit, and hybrid switching-logic synthesis with the Fig. 10 trace
// (three times). Each loop's output is checked against the oracle, by
// measurement or by simulation.
#include <cmath>
#include <functional>
#include <map>

#include "aig/aig.hpp"
#include "bvgen.hpp"
#include "gametime/gametime.hpp"
#include "hybrid/transmission.hpp"
#include "invgen/invgen.hpp"
#include "ir/parser.hpp"
#include "ir/transform.hpp"
#include "obs/trace.hpp"
#include "ogis/benchmarks.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ogis = sciduction::ogis;
namespace gt = sciduction::gametime;
namespace ig = sciduction::invgen;
namespace hy = sciduction::hybrid;
namespace ir = sciduction::ir;
namespace aig = sciduction::aig;
namespace core = sciduction::core;
namespace smt = sciduction::smt;

namespace {

constexpr unsigned ogis_width = 8;

// ---- OGIS ------------------------------------------------------------------

/// Compares the synthesized program with the obfuscated mini-C source run
/// by the interpreter at the same width: exhaustively at 8 bits, on seeded
/// samples above that.
std::string check_ogis(const ogis::deobfuscation_benchmark& b, const ogis::lf_program& prog, prng& r) {
    ogis::minic_oracle oracle(ir::parse_program(b.obfuscated_source, b.config.width), b.function_name,
                              b.output_globals);
    const unsigned w = b.config.width;
    const std::uint64_t m = width_mask(w);
    const unsigned n = b.config.num_inputs;
    const bool exhaustive = w * n <= 16;
    const std::uint64_t count = exhaustive ? (1ULL << (w * n)) : 4096;
    for (std::uint64_t k = 0; k < count; ++k) {
        std::vector<std::uint64_t> in(n);
        for (unsigned i = 0; i < n; ++i) in[i] = exhaustive ? (k >> (w * i)) & m : r.next() & m;
        const auto want = oracle.query(in);
        const auto got = prog.eval(b.config.library, in);
        if (want.size() != got.size()) return b.name + ": output arity differs from the oracle";
        for (std::size_t j = 0; j < want.size(); ++j)
            if ((want[j] & m) != (got[j] & m)) return b.name + ": differs from the mini-C oracle";
    }
    return {};
}

// ---- GameTime --------------------------------------------------------------

std::string modexp_source(int bound, std::uint64_t modulus) {
    const std::string k = std::to_string(bound), mod = std::to_string(modulus);
    return "int modexp(int base, int exponent) {\n"
           "  int result = 1;\n  int b = base;\n  int i = 0;\n"
           "  while (i < " + k + ") bound " + k + " {\n"
           "    if (exponent & 1) { result = (result * b) % " + mod + "; }\n"
           "    b = (b * b) % " + mod + ";\n"
           "    exponent = exponent >> 1;\n    i = i + 1;\n  }\n  return result;\n}\n";
}

struct gametime_case {
    int bound = 8;
    std::uint64_t modulus = 1000003;
    std::uint64_t platform_seed = 1;
};

struct gametime_out {
    std::optional<gt::wcet_estimate> wcet;
    std::size_t basis_paths = 0;
};

/// Tolerance of the longest-path check: the predicted path's measured time
/// may trail the longest measured path by this share (the platform's
/// path-dependent perturbation, bounded under GameTime's hypothesis).
constexpr double gametime_tolerance = 0.03;

/// Measures every path on a fresh platform (the exponent's low `bound`
/// bits select the path) and checks the predicted-longest path's measured
/// time against the longest measured one.
std::string check_gametime(const gametime_case& c, const std::vector<std::uint64_t>& args) {
    const ir::program p = ir::parse_program(modexp_source(c.bound, c.modulus));
    const ir::function f = ir::resolve_static_branches(ir::unroll_loops(*p.find_function("modexp")), p.width);
    gt::sarm_platform platform(p, f, {}, c.platform_seed);
    std::uint64_t longest = 0;
    for (std::uint64_t e = 0; e < (1ULL << c.bound); ++e)
        longest = std::max(longest, platform.measure_cold({args[0], e}));
    const auto predicted = static_cast<double>(platform.measure_cold(args));
    if (predicted < (1.0 - gametime_tolerance) * static_cast<double>(longest))
        return "gametime: predicted-longest path measures " + std::to_string(predicted) + " cycles, longest path " +
               std::to_string(longest);
    return {};
}

// ---- invgen ----------------------------------------------------------------

/// A circuit built through a recorder of every AND node, so the benchmark
/// can simulate it with its own evaluator.
struct circuit {
    aig::aig g;
    std::vector<aig::literal> inputs, latches, next;
    std::vector<bool> init;
    std::map<std::uint32_t, std::pair<aig::literal, aig::literal>> ands;

    aig::literal input() { return inputs.emplace_back(g.add_input()); }
    aig::literal latch(bool v) {
        init.push_back(v);
        next.push_back(aig::lit_false);
        return latches.emplace_back(g.add_latch(v));
    }
    aig::literal AND(aig::literal a, aig::literal b) {
        const aig::literal r = g.add_and(a, b);
        const std::uint32_t v = aig::var_of(r);
        if (v > inputs.size() + latches.size() && !ands.count(v)) ands[v] = {a, b};
        return r;
    }
    aig::literal OR(aig::literal a, aig::literal b) { return aig::negate(AND(aig::negate(a), aig::negate(b))); }
    aig::literal XOR(aig::literal a, aig::literal b) { return OR(AND(a, aig::negate(b)), AND(aig::negate(a), b)); }
    void set_next(std::size_t i, aig::literal n) {
        next[i] = n;
        g.set_latch_next(latches[i], n);
    }

    /// Literal value under a latch state and input vector.
    bool eval(aig::literal l, const std::vector<bool>& state, const std::vector<bool>& in,
              std::map<std::uint32_t, bool>& memo) const {
        const std::uint32_t v = aig::var_of(l);
        bool val = false;
        if (v == 0) val = false;
        else if (v <= inputs.size()) val = in[v - 1];
        else if (v <= inputs.size() + latches.size()) val = state[v - 1 - inputs.size()];
        else if (auto it = memo.find(v); it != memo.end()) val = it->second;
        else {
            const auto& [a, b] = ands.at(v);
            val = eval(a, state, in, memo) && eval(b, state, in, memo);
            memo[v] = val;
        }
        return aig::negated(l) ? !val : val;
    }
};

/// Seeded design: a k-bit counter wrapping at a seeded bound, a shadow copy
/// of it (equivalences), a stuck-at-zero latch (a constant) and a free
/// toggle driven by an input.
circuit make_circuit(prng& r) {
    circuit c;
    const aig::literal x = c.input();
    const int k = static_cast<int>(r.range(3, 4));
    const std::uint64_t wrap = r.range(5, (1ULL << k) - 1);
    std::vector<aig::literal> cnt, shadow;
    for (int i = 0; i < k; ++i) cnt.push_back(c.latch(false));
    for (int i = 0; i < k; ++i) shadow.push_back(c.latch(false));
    const aig::literal stuck = c.latch(false);
    const aig::literal toggle = c.latch(false);
    auto counter_next = [&](const std::vector<aig::literal>& q) {
        // at_wrap: q == wrap - 1; next = at_wrap ? 0 : q + 1.
        aig::literal at_wrap = aig::lit_true;
        for (int i = 0; i < k; ++i) at_wrap = c.AND(at_wrap, ((wrap - 1) >> i) & 1 ? q[static_cast<std::size_t>(i)] : aig::negate(q[static_cast<std::size_t>(i)]));
        std::vector<aig::literal> n;
        aig::literal carry = aig::lit_true;
        for (int i = 0; i < k; ++i) {
            n.push_back(c.AND(aig::negate(at_wrap), c.XOR(q[static_cast<std::size_t>(i)], carry)));
            carry = c.AND(carry, q[static_cast<std::size_t>(i)]);
        }
        return n;
    };
    const auto n1 = counter_next(cnt), n2 = counter_next(shadow);
    for (int i = 0; i < k; ++i) {
        c.set_next(static_cast<std::size_t>(i), n1[static_cast<std::size_t>(i)]);
        c.set_next(static_cast<std::size_t>(k + i), n2[static_cast<std::size_t>(i)]);
    }
    c.set_next(static_cast<std::size_t>(2 * k), c.AND(stuck, x));
    c.set_next(static_cast<std::size_t>(2 * k + 1), c.XOR(toggle, x));
    c.g.add_output(aig::negate(stuck));
    return c;
}

/// Every invariant must hold in every state of seeded random walks from the
/// initial state, under the benchmark's own evaluation of the circuit.
std::string check_invariants(const circuit& c, const std::vector<ig::candidate>& invs, std::uint64_t seed) {
    prng r(seed);
    for (int walk = 0; walk < 32; ++walk) {
        std::vector<bool> state = c.init;
        for (int step = 0; step < 24; ++step) {
            std::vector<bool> in(c.inputs.size());
            for (std::size_t i = 0; i < in.size(); ++i) in[i] = r.coin();
            std::map<std::uint32_t, bool> memo;
            for (const auto& inv : invs) {
                const bool l = c.eval(inv.lhs, state, in, memo), rr = c.eval(inv.rhs, state, in, memo);
                bool ok = true;
                switch (inv.k) {
                    case ig::candidate::kind::constant: ok = l; break;
                    case ig::candidate::kind::equivalence: ok = l == rr; break;
                    case ig::candidate::kind::implication: ok = !l || rr; break;
                }
                if (!ok) return "invgen: invariant " + inv.to_string() + " violated in simulation";
            }
            std::vector<bool> nxt(state.size());
            for (std::size_t i = 0; i < state.size(); ++i) nxt[i] = c.eval(c.next[i], state, in, memo);
            state = std::move(nxt);
        }
    }
    return {};
}

// ---- hybrid ----------------------------------------------------------------

/// Safety of the Fig. 10 trace, recomputed from the paper's definitions:
/// speed within [0, cap], and in a gear, efficiency >= 0.5 at speed >= 5.
std::string check_hybrid(const hy::fig10_result& tr, const hy::transmission_params& params) {
    if (!tr.reached_goal) return "hybrid: the trace did not reach the goal";
    if (tr.samples.empty()) return "hybrid: empty trace";
    for (const auto& s : tr.samples) {
        if (s.omega < 0 || s.omega > params.omega_cap) return "hybrid: speed outside the envelope";
        const int gear = s.mode == 0 ? 0 : (s.mode <= 3 ? s.mode : s.mode - 3);
        if (gear == 0) continue;
        const double delta = s.omega - 10.0 * gear;
        const double eta = 0.99 * std::exp(-delta * delta / 64.0) + 0.01;
        if (s.omega >= 5.0 && eta < 0.5) return "hybrid: gear engaged below 0.5 efficiency";
    }
    return {};
}

hy::synthesis_config hybrid_config() {
    hy::synthesis_config cfg;
    cfg.sim.dt = 2e-3;
    cfg.sim.t_max = 200;
    cfg.learner.grid = {50.0, 0.01};
    cfg.learner.coarse_step = {1000.0, 1.0};
    return cfg;
}

// ---- the round ---------------------------------------------------------------

/// The OGIS loops of a round: every benchmark once. With one GameTime, one
/// invgen and three hybrid loops that makes ten loops a round: four faster
/// than hybrid (invgen, two OGIS, GameTime) and three slower (P1, P2 and
/// average-no-overflow), so the median falls in the middle of the hybrid
/// loops. The 90th percentile falls where P2 (about 110-190 ms) and
/// average-no-overflow (about 115-300 ms) overlap. A second
/// average-no-overflow per round, which put the 90th percentile inside that
/// family alone, made it the noisiest figure of the benchmark: its run time
/// varies threefold with the seed, so few samples spread over a wide range.
std::vector<ogis::deobfuscation_benchmark> ogis_round() { return ogis::all_benchmarks(); }

struct layer_counts {
    double iterations = 0, oracle_queries = 0, solver_runs = 0, basis_paths = 0, proven = 0, sim_queries = 0;
};

/// Runs one round of the loops; checks are collected in `checks` and run
/// after the round's timer stops. Latencies per loop go to `lat_ms`.
void run_round(std::uint64_t round_seed, bool traced, span_log& log, std::vector<double>& lat_ms,
               std::vector<std::function<std::string()>>& checks, layer_counts& counts,
               const std::shared_ptr<sciduction::obs::trace_collector>& engine_trace) {
    prng r(round_seed);
    std::uint64_t op = 0;
    {
        gametime_case c;
        // 2048 paths, all measured by the check.
        c.bound = 11;
        c.modulus = r.range(10007, 1000003) | 1;
        c.platform_seed = r.next();
        const std::uint64_t learn_seed = r.next();
        const auto t0 = steady::now();
        gametime_out g;
        {
            scope s(log, "gametime", op++);
            const ir::program p = ir::parse_program(modexp_source(c.bound, c.modulus));
            const ir::function f = ir::resolve_static_branches(ir::unroll_loops(*p.find_function("modexp")), p.width);
            const ir::cfg cfg = ir::cfg::build(p, f);
            smt::term_manager tm;
            const gt::basis_info basis = gt::extract_basis_paths(cfg, tm);
            gt::sarm_platform platform(p, f, {}, c.platform_seed);
            const gt::timing_model model = gt::learn_timing_model(basis, platform, {.seed = learn_seed});
            g.wcet = gt::predict_wcet(cfg, model, tm);
            g.basis_paths = basis.paths.size();
        }
        lat_ms.push_back(ms_since(t0));
        counts.basis_paths += static_cast<double>(g.basis_paths);
        checks.push_back([c, g]() -> std::string {
            if (!g.wcet) return "gametime: no WCET estimate";
            return check_gametime(c, g.wcet->test_args);
        });
    }
    for (auto b : ogis_round()) {
        b.config.width = ogis_width;
        b.config.seed = r.next();
        b.config.overlap_queries = true;
        if (traced) b.config.engine.trace = engine_trace;
        const auto t0 = steady::now();
        ogis::synthesis_outcome o;
        {
            scope s(log, "ogis", op++);
            o = ogis::run_benchmark(b);
        }
        lat_ms.push_back(ms_since(t0));
        counts.iterations += o.stats.iterations;
        counts.oracle_queries += static_cast<double>(o.stats.oracle_queries);
        counts.solver_runs += static_cast<double>(o.stats.solver_runs);
        const std::uint64_t check_seed = r.next();
        checks.push_back([b, o, check_seed]() -> std::string {
            if (o.status != core::loop_status::success || !o.program) return b.name + ": synthesis did not succeed";
            prng cr(check_seed);
            return check_ogis(b, *o.program, cr);
        });
    }
    {
        auto c = std::make_shared<circuit>(make_circuit(r));
        ig::invgen_config cfg;
        cfg.seed = r.next();
        const std::uint64_t sim_seed = r.next();
        const auto t0 = steady::now();
        ig::invgen_result res;
        {
            scope s(log, "invgen", op++);
            res = ig::generate_invariants(c->g, cfg);
        }
        lat_ms.push_back(ms_since(t0));
        counts.proven += static_cast<double>(res.proven.size());
        checks.push_back([c, res, sim_seed]() -> std::string {
            if (res.proven.empty()) return "invgen: no invariant proven";
            return check_invariants(*c, res.proven, sim_seed);
        });
    }
    for (int k = 0; k < 3; ++k) {
        // The paper's parameters: the synthesized trace stops at a position
        // that does not follow theta_max, so the goal check holds only for
        // some goals (1650-1750 among 1000-2000 in steps of 50); the seed
        // does not vary this loop.
        const hy::transmission_params params;
        const auto t0 = steady::now();
        hy::fig10_result tr;
        hy::synthesis_result syn;
        {
            scope s(log, "hybrid", op++);
            hy::mds sys = hy::build_transmission(params);
            syn = hy::synthesize_switching_logic(sys, hybrid_config());
            tr = hy::run_fig10_trace(sys, params);
        }
        lat_ms.push_back(ms_since(t0));
        counts.sim_queries += static_cast<double>(syn.simulator_queries);
        checks.push_back([tr, params, syn]() -> std::string {
            if (!syn.converged) return "hybrid: synthesis did not converge";
            return check_hybrid(tr, params);
        });
    }
}

}  // namespace

void run_app_loops(const run_options& opt, result& out) {
    // Set-up: one warm-up round on a fixed seed (so set-up time does not
    // depend on the run's seed); repeated, reported as a median.
    std::vector<double> setups;
    {
        span_log idle;
        layer_counts scratch;
        for (int rep = 0; rep < 5; ++rep) {
            std::vector<double> lat;
            std::vector<std::function<std::string()>> checks;
            const auto t0 = steady::now();
            run_round(derive_seed(0, 500), false, idle, lat, checks, scratch, nullptr);
            setups.push_back(seconds_since(t0));
            for (auto& c : checks)
                if (std::string err = c(); !err.empty()) out.fail_check("warm-up: " + err);
        }
    }

    span_log log;
    layer_counts counts, first_traced;
    auto engine_trace = std::make_shared<sciduction::obs::trace_collector>(1u << 20);
    std::vector<double> lat_ms, round_ms, traced_round_ms;
    const auto run_start = steady::now();
    std::size_t rounds = 0;
    while (rounds == 0 || seconds_since(run_start) < opt.seconds) {
        const bool traced = opt.trace && rounds % 2 == 1;
        log.enabled = traced;
        std::vector<std::function<std::string()>> checks;
        layer_counts c;
        const auto r0 = steady::now();
        run_round(derive_seed(opt.seed, 1000 + rounds), traced, log, lat_ms, checks, c, engine_trace);
        (traced ? traced_round_ms : round_ms).push_back(ms_since(r0));
        if (traced && traced_round_ms.size() == 1) first_traced = c;
        for (auto& check : checks) {
            ++out.attempted;
            if (std::string err = check(); !err.empty()) {
                ++out.failed;
                out.fail_check(err);
            }
        }
        ++rounds;
    }

    if (!opt.trace) {
        out.metric("setup_s", median(setups));
        out.metric("wall_s", median(round_ms) / 1e3);
        out.metric("req_per_s", ops_per_s(lat_ms.size(), round_ms));
        out.metric("lat_p50_ms", median(lat_ms));
        out.metric("lat_p90_ms", quantile(lat_ms, 0.9));
        out.metric("peak_rss_mb", self_peak_rss_mb());
        return;
    }
    out.metric("ogis.iterations", first_traced.iterations);
    out.metric("ogis.oracle_queries", first_traced.oracle_queries);
    out.metric("ogis.solver_runs", first_traced.solver_runs);
    out.metric("substrate.engine.solver_runs", first_traced.solver_runs);
    out.metric("gametime.basis_paths", first_traced.basis_paths);
    out.metric("invgen.proven", first_traced.proven);
    out.metric("hybrid.simulator_queries", first_traced.sim_queries);
    // The engine's own queue_wait spans (engine_config::trace) over the
    // traced OGIS runs.
    double queue_us = 0;
    for (const auto& ev : engine_trace->events())
        if (ev.name == "queue_wait") queue_us += static_cast<double>(ev.dur_us);
    out.metric("substrate.engine.queue_wait_ms",
               queue_us / 1e3 / static_cast<double>(std::max<std::size_t>(1, traced_round_ms.size())));
    report_trace_accounting(log, traced_round_ms, round_ms, out);
}

std::vector<std::string> selftest_apps() {
    std::vector<std::string> bad;
    // OGIS: the program synthesized for one benchmark is wrong for another.
    {
        auto benches = ogis::all_benchmarks();
        auto& p1 = benches[0];  // interchange: two inputs, two outputs
        auto& avg = benches[4];  // average: two inputs, one output
        p1.config.width = avg.config.width = ogis_width;
        const auto o = ogis::run_benchmark(avg);
        prng r(5);
        if (!o.program) bad.push_back("ogis self-test could not synthesize");
        else {
            if (!check_ogis(avg, *o.program, r).empty()) bad.push_back("ogis checker rejects a correct program");
            ogis::lf_program wrong = *o.program;
            wrong.outputs[0] = 0;  // return the first input instead
            if (check_ogis(avg, wrong, r).empty()) bad.push_back("ogis checker accepts a corrupted program");
        }
    }
    // GameTime: the shortest path (exponent 0) is not the longest.
    {
        gametime_case c{6, 10007, 3};
        if (check_gametime(c, {3, 0}).empty()) bad.push_back("gametime checker accepts the shortest path");
        if (!check_gametime(c, {3, (1ULL << 6) - 1}).empty()) bad.push_back("gametime checker rejects the all-ones path");
    }
    // invgen: a negated invariant is violated in simulation.
    {
        prng r(9);
        const circuit c = make_circuit(r);
        const auto res = ig::generate_invariants(c.g, {});
        if (res.proven.empty()) bad.push_back("invgen self-test proved nothing");
        else {
            if (!check_invariants(c, res.proven, 1).empty()) bad.push_back("invgen checker rejects proven invariants");
            auto corrupt = res.proven;
            corrupt[0].lhs = aig::negate(corrupt[0].lhs);
            if (check_invariants(c, corrupt, 1).empty()) bad.push_back("invgen checker accepts a negated invariant");
        }
    }
    // hybrid: a trace sample outside the speed envelope is unsafe.
    {
        hy::transmission_params params;
        hy::fig10_result tr;
        tr.reached_goal = true;
        tr.samples.push_back({0, 1, 0, 12.0, 0});
        if (!check_hybrid(tr, params).empty()) bad.push_back("hybrid checker rejects a safe sample");
        tr.samples.push_back({1, 1, 10, 25.0, 0});  // gear 1 at 25: efficiency ~0.04
        if (check_hybrid(tr, params).empty()) bad.push_back("hybrid checker accepts an unsafe sample");
    }
    return bad;
}

}  // namespace perfbench

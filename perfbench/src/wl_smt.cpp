// smt-blast: seeded QF_BV SMT-LIB2 scripts through the in-process front
// door (frontend::parse_script, one smt_engine::solve per script under the
// `single` strategy, substrate::model_evaluator). Parse, canonicalization /
// cache and bit-blasting do most of the work; the classifier is bypassed.
// Each round also runs two hostile inputs through sciduction_run in a child
// process; they count as attempted, and as failed unless they end in a
// verdict or a MALFORMED report, and are excluded from every timing.
#include <iostream>

#include "bvgen.hpp"
#include "frontend/smtlib2.hpp"
#include "proc.hpp"
#include "substrate/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sub = sciduction::substrate;
namespace smt = sciduction::smt;
namespace fe = sciduction::frontend;

namespace {

struct script_case {
    bvformula formula;
    std::string text;
};

std::vector<script_case> make_round(std::uint64_t seed) {
    prng r(derive_seed(seed, 2));
    std::vector<bvformula> fs;
    auto prefix = [&fs] { return "s" + std::to_string(fs.size()) + "_"; };
    // Each identity family once: identities of one family and width are
    // alpha-equivalent, so further copies would be cache hits anyway.
    // The counts put the median script mid-way through the planted family
    // and the 90th percentile mid-way through the identities and chains.
    for (int i = 0; i < identity_families; ++i) fs.push_back(gen_identity(r, prefix(), i));
    for (int i = 0; i < 210; ++i) fs.push_back(gen_planted(r, prefix(), 8));
    for (int i = 0; i < 52; ++i) fs.push_back(gen_chain(r, prefix(), 8, 1000));
    // Repeats of earlier scripts, renamed and with commuted operands: a
    // structural cache answers them without blasting.
    const std::size_t originals = fs.size();
    for (int i = 0; i < 30; ++i) fs.push_back(fs[r.below(originals)].renamed_commuted(prefix()));
    std::vector<script_case> out;
    for (auto& f : fs) {
        std::string text = f.smtlib();
        out.push_back({std::move(f), std::move(text)});
    }
    return out;
}

/// The hostile inputs: deep enough to overflow a recursive parser. They do
/// not depend on the seed.
struct hostile_case {
    std::string name;
    std::string path;
};

std::vector<hostile_case> write_hostile(const std::string& dir) {
    std::vector<hostile_case> out;
    {
        std::string t = "(set-logic QF_BV)\n(declare-fun p () Bool)\n(assert ";
        for (int i = 0; i < 20000; ++i) t += "(not ";
        t += "p";
        t += std::string(20000, ')');
        t += ")\n(check-sat)\n";
        out.push_back({"not_chain_20000", dir + "/hostile_not_chain.smt2"});
        write_file(out.back().path, t);
    }
    {
        std::string t = "(set-logic QF_BV)\n(declare-fun x () (_ BitVec 8))\n(assert (= ";
        for (int i = 0; i < 10000; ++i) t += "(bvadd ";
        t += "x";
        for (int i = 0; i < 10000; ++i) t += " (_ bv1 8))";
        // x + 10000 = x + 16 (mod 256): satisfiable by every x.
        t += " (bvadd x (_ bv16 8))))\n(check-sat)\n";
        out.push_back({"bvadd_chain_10000", dir + "/hostile_bvadd_chain.smt2"});
        write_file(out.back().path, t);
    }
    return out;
}

/// One script's outcome, checked after the round's timer stops.
struct outcome {
    sub::answer ans = sub::answer::unknown;
    sub::solve_status status = sub::solve_status::ok;
    std::vector<std::uint64_t> values;
    bool error = false;
    std::string what;
};

std::string check(const script_case& c, const outcome& o) {
    if (o.error) return c.formula.family + ": " + o.what;
    if (o.status != sub::solve_status::ok) return c.formula.family + ": status " + to_string(o.status);
    if ((o.ans == sub::answer::sat) != c.formula.expect_sat)
        return c.formula.family + ": verdict contradicts the status known by construction";
    return c.formula.expect_sat ? c.formula.check_model(o.values) : std::string{};
}

std::vector<std::uint64_t> read_values(const smt::term_manager& tm, const fe::script& s, const smt::env& model) {
    sub::model_evaluator ev(tm, model);
    std::vector<std::uint64_t> v;
    for (const auto& [name, t] : s.declarations) v.push_back(ev.value(t));
    return v;
}

struct traced_counts {
    double terms = 0, vars = 0, clauses = 0;
    std::uint64_t hits = 0, structural_hits = 0, lookups = 0;
};

}  // namespace

void run_smt_blast(const run_options& opt, result& out) {
    const std::vector<script_case> round = make_round(opt.seed);
    const std::vector<hostile_case> hostile = write_hostile(opt.tmp_dir);
    const std::string front_door = opt.bin_dir + "/sciduction_run";

    // Set-up: construct the term manager and engine and run one warm-up
    // pass over a fixed script set that does not depend on the seed;
    // repeated, reported as a median.
    const std::vector<script_case> warm = make_round(0);
    std::vector<double> setups;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = steady::now();
        smt::term_manager tm;
        sub::smt_engine engine(tm);
        for (std::size_t i = 0; i < warm.size(); i += 2) {
            const fe::script s = fe::parse_script(warm[i].text, tm);
            const auto res = engine.solve({s.assertions, {}, sub::strategy::single()});
            outcome o;
            o.ans = res.ans;
            o.status = res.status;
            if (res.is_sat()) o.values = read_values(tm, s, res.model);
            if (std::string err = check(warm[i], o); !err.empty()) out.fail_check("warm-up: " + err);
        }
        setups.push_back(seconds_since(t0));
    }

    span_log log;
    traced_counts counts;
    std::vector<double> lat_ms, round_ms, traced_round_ms;
    std::vector<outcome> outcomes(round.size());
    const auto run_start = steady::now();
    std::size_t rounds = 0;
    while (rounds == 0 || seconds_since(run_start) < opt.seconds) {
        const bool traced = opt.trace && rounds % 2 == 1;
        log.enabled = traced;
        // A fresh manager and engine per round: repeats within the round hit
        // the cache, earlier rounds do not.
        smt::term_manager tm;
        sub::smt_engine engine(tm);
        sub::query_cache cache(tm);  // the traced path's own cache
        const auto r0 = steady::now();
        for (std::size_t i = 0; i < round.size(); ++i) {
            outcome& o = outcomes[i];
            o = outcome{};
            const auto t0 = steady::now();
            try {
                if (!traced) {
                    const fe::script s = fe::parse_script(round[i].text, tm);
                    const auto res = engine.solve({s.assertions, {}, sub::strategy::single()});
                    o.ans = res.ans;
                    o.status = res.status;
                    if (res.is_sat()) o.values = read_values(tm, s, res.model);
                } else {
                    // The engine's pipeline, one public call per layer.
                    fe::script s;
                    {
                        scope sp(log, "frontend.parse", i);
                        s = fe::parse_script(round[i].text, tm);
                    }
                    std::shared_ptr<const sub::query_cache::prepared_query> prep;
                    {
                        scope sp(log, "substrate.query_cache.prepare", i);
                        prep = cache.prepare(tm, s.assertions);
                    }
                    std::optional<sub::backend_result> res;
                    {
                        scope sp(log, "substrate.query_cache.lookup", i);
                        res = cache.lookup_prepared(tm, *prep);
                    }
                    if (!res) {
                        sub::smt_backend backend(tm, s.assertions);
                        {
                            scope sp(log, "smt.blast", i);
                            backend.prepare();
                        }
                        {
                            scope sp(log, "sat.solver.search", i);
                            res = backend.check();
                        }
                        {
                            scope sp(log, "substrate.query_cache.insert", i);
                            cache.insert_prepared(tm, *prep, *res);
                        }
                        if (traced_round_ms.empty()) {
                            counts.vars += backend.sat_core()->num_vars();
                            counts.clauses += static_cast<double>(backend.sat_core()->num_clauses());
                        }
                    }
                    o.ans = res->ans;
                    o.status = res->status;
                    if (res->is_sat()) {
                        {
                            scope sp(log, "substrate.backend.extract", i);
                            o.values = read_values(tm, s, res->model);
                        }
                        scope sp(log, "substrate.backend.verify", i);
                        sub::model_evaluator ev(tm, res->model);
                        for (smt::term a : s.assertions)
                            if (ev.value(a) != 1) o.status = sub::solve_status::internal;
                    }
                }
            } catch (const std::exception& e) {
                o.error = true;
                o.what = e.what();
            }
            lat_ms.push_back(ms_since(t0));
        }
        (traced ? traced_round_ms : round_ms).push_back(ms_since(r0));
        if (traced && traced_round_ms.size() == 1) {
            const auto cs = cache.stats();
            counts.terms = static_cast<double>(tm.num_terms());
            counts.hits = cs.hits;
            counts.structural_hits = cs.structural_hits;
            counts.lookups = cs.hits + cs.misses;
        }
        for (std::size_t i = 0; i < round.size(); ++i) {
            ++out.attempted;
            if (std::string err = check(round[i], outcomes[i]); !err.empty()) {
                out.fail_check(err);
                ++out.failed;
            }
        }
        // The hostile inputs, untimed. A verdict or a MALFORMED report is a
        // success; death by a signal is a failure.
        for (const auto& h : hostile) {
            ++out.attempted;
            const std::string out_path = opt.tmp_dir + "/hostile.out";
            const child_exit ex =
                run_child({front_door, h.path, "--strategy", "single", "--threads", "1"}, 120, out_path);
            const std::string text = read_file(out_path);
            const bool verdict = ex.exited && ex.code == 10 && text.find("s SATISFIABLE") != std::string::npos;
            const bool malformed = ex.exited && ex.code == 1 && text.find("s MALFORMED") != std::string::npos;
            if (!verdict && !malformed) {
                ++out.failed;
                if (rounds == 0)
                    std::cerr << "hostile " << h.name << ": "
                              << (ex.signal != 0 ? "killed by signal " + std::to_string(ex.signal)
                                                 : "exit code " + std::to_string(ex.code))
                              << "\n";
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
    out.metric("frontend.terms", counts.terms);
    out.metric("smt.vars", counts.vars);
    out.metric("smt.clauses", counts.clauses);
    out.metric("substrate.query_cache.hits", static_cast<double>(counts.hits));
    out.metric("substrate.query_cache.structural_hits", static_cast<double>(counts.structural_hits));
    out.metric("substrate.query_cache.hit_ratio",
               counts.lookups ? static_cast<double>(counts.hits) / static_cast<double>(counts.lookups) : 0);
    report_trace_accounting(log, traced_round_ms, round_ms, out);
}

std::vector<std::string> selftest_bv() {
    std::vector<std::string> bad;
    prng r(11);
    const bvformula planted = gen_planted(r, "t_", 12);
    if (!planted.check_model(planted.witness).empty()) bad.push_back("bv evaluator rejects a planted model");
    // A chain of additions and xors by constants is a bijection of x: any
    // other x falsifies it.
    const bvformula chain = gen_chain(r, "t_", 8, 50);
    if (!chain.check_model(chain.witness).empty()) bad.push_back("bv evaluator rejects a planted chain model");
    if (chain.check_model({chain.witness[0] ^ 1}).empty()) bad.push_back("bv evaluator accepts a corrupted chain model");
    // An identity answered sat: its negated equation is false under every model.
    for (int i = 0; i < 16; ++i) {
        const bvformula id = gen_identity(r, "t_", i % identity_families);
        std::vector<std::uint64_t> vals;
        for (unsigned w : id.var_widths) vals.push_back((r.next() & width_mask(w)) | 1);
        if (id.check_model(vals).empty()) bad.push_back("bv evaluator accepts a model of identity " + id.family);
    }
    outcome lie;
    lie.ans = sub::answer::sat;
    prng r2(3);
    script_case id{gen_identity(r2, "t_", 0), ""};
    if (check(id, lie).empty()) bad.push_back("smt checker accepts sat on an identity");
    return bad;
}

}  // namespace perfbench

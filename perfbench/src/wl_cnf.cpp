// cnf-search: seeded DIMACS instances of known status, each parsed with
// sat::read_dimacs and decided by substrate::solve_cnf_dimacs under the
// automatic strategy on one worker thread. CDCL search does nearly all the
// work; a share of the instances sits between the classifier's thresholds.
#include <cstdlib>

#include "cnfgen.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "substrate/solve_request.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sub = sciduction::substrate;
namespace sat = sciduction::sat;

namespace {

/// solve_cnf's library default portfolio width (solve_request.hpp), which
/// a portfolio pick that leaves `members` unset inherits.
constexpr unsigned default_members = 4;

/// The classifier's inputs for one instance on one worker thread.
sub::query_features features_of(const sat::dimacs_problem& p) {
    sub::query_features f;
    f.variables = static_cast<std::size_t>(p.num_vars);
    f.clauses = p.clauses.size();
    f.threads = 1;
    return f;
}

std::vector<cnf_instance> make_round(std::uint64_t seed) {
    prng r(derive_seed(seed, 1));
    std::vector<cnf_instance> v;
    // Counts are chosen so that the median instance falls mid-way through
    // the odd-charge Tseitin family and the 90th percentile mid-way through
    // the redundant family: both percentiles then sit inside one family
    // instead of on a boundary between two.
    for (int i = 0; i < 48; ++i) v.push_back(planted_3sat(r, 120, 4.1));
    // 400 base clauses plus five widened copies: 2400 clauses, between the
    // classifier's small (2000) and large (20000) thresholds.
    for (int i = 0; i < 80; ++i) v.push_back(redundant_planted(r, 100, 4.0, 5));
    for (int i = 0; i < 16; ++i) v.push_back(pigeonhole(5));
    for (int i = 0; i < 144; ++i) v.push_back(tseitin(r, 20, 10, /*odd_charge=*/true));
    for (int i = 0; i < 112; ++i) {
        const int n = static_cast<int>(r.range(40, 60));
        v.push_back(tseitin(r, n, n / 2, /*odd_charge=*/false));
    }
    return v;
}

std::string check_outcome(const cnf_instance& inst, const sub::cnf_outcome& out) {
    if (out.result.status != sub::solve_status::ok) return inst.family + ": status " + to_string(out.result.status);
    if (out.result.is_sat() != inst.expect_sat)
        return inst.family + ": verdict contradicts the status known by construction";
    if (!inst.expect_sat) return {};
    std::vector<bool> model(static_cast<std::size_t>(inst.num_vars) + 1);
    const auto& m = out.result.sat_model;
    for (int v = 1; v <= inst.num_vars; ++v)
        model[static_cast<std::size_t>(v)] =
            static_cast<std::size_t>(v - 1) < m.size() && m[static_cast<std::size_t>(v - 1)] == sat::lbool::l_true;
    std::string err = check_cnf_model(inst, model);
    return err.empty() ? err : inst.family + ": " + err;
}

struct traced_counts {
    std::uint64_t picks[3] = {0, 0, 0};  // single, portfolio, shard (incl. over-portfolio)
    std::uint64_t members_run = 0;  // portfolio picks, members of the classifier's pick
    std::uint64_t loser_conflicts = 0;
    std::uint64_t total_conflicts = 0;  // portfolio picks, all members
};

}  // namespace

void run_cnf_search(const run_options& opt, result& out) {
    const std::vector<cnf_instance> round = make_round(opt.seed);
    const auto strat = sub::strategy::automatic();

    // Set-up: the in-process stack has no engine to construct, so set-up is
    // one warm-up pass (allocator, code and page warm-up) over a fixed
    // instance set that does not depend on the seed; repeated, reported as
    // a median.
    const std::vector<cnf_instance> warm = make_round(0);
    std::vector<double> setups;
    for (int rep = 0; rep < 9; ++rep) {
        const auto t0 = steady::now();
        for (std::size_t i = 0; i < warm.size(); i += 10) {
            const auto problem = sat::read_dimacs(warm[i].dimacs);
            const auto o = sub::solve_cnf_dimacs(problem, strat, 1);
            if (std::string err = check_outcome(warm[i], o); !err.empty()) out.fail_check("warm-up: " + err);
        }
        setups.push_back(seconds_since(t0));
    }

    span_log log;
    traced_counts counts;
    std::vector<double> lat_ms, round_ms, traced_round_ms;
    std::vector<sub::cnf_outcome> outcomes(round.size());
    std::vector<sub::strategy> picks(round.size());  // traced rounds: the classifier's pick
    const auto run_start = steady::now();
    std::size_t rounds = 0;
    while (rounds == 0 || seconds_since(run_start) < opt.seconds) {
        // The traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured within one process.
        const bool traced = opt.trace && rounds % 2 == 1;
        log.enabled = traced;
        const auto r0 = steady::now();
        for (std::size_t i = 0; i < round.size(); ++i) {
            const auto t0 = steady::now();
            if (!traced) {
                const auto problem = sat::read_dimacs(round[i].dimacs);
                outcomes[i] = sub::solve_cnf_dimacs(problem, strat, 1);
            } else {
                sat::dimacs_problem problem;
                {
                    scope s(log, "sat.dimacs.parse", i);
                    problem = sat::read_dimacs(round[i].dimacs);
                }
                {
                    // The classifier alone, on the parsed problem's size. The
                    // program loads its prototype solver and classifies again
                    // inside the next span; that load is its own cost.
                    scope s(log, "substrate.solve_request.classify", i);
                    picks[i] = sub::strategy::auto_select(features_of(problem));
                }
                const bool single = picks[i].kind == sub::strategy_kind::single;
                scope s(log, single ? "sat.solver.search" : "substrate.portfolio.race", i);
                outcomes[i] = sub::solve_cnf_dimacs(problem, strat, 1);
            }
            lat_ms.push_back(ms_since(t0));
        }
        (traced ? traced_round_ms : round_ms).push_back(ms_since(r0));
        for (std::size_t i = 0; i < round.size(); ++i) {
            if (std::string err = check_outcome(round[i], outcomes[i]); !err.empty()) {
                out.fail_check(err);
                ++out.failed;
            }
            ++out.attempted;
            if (traced && traced_round_ms.size() == 1) {
                const auto k = outcomes[i].executed;
                if (k == sub::strategy_kind::single) ++counts.picks[0];
                else if (k == sub::strategy_kind::portfolio) {
                    ++counts.picks[1];
                    counts.members_run += picks[i].members.value_or(default_members);
                    counts.loser_conflicts += outcomes[i].total_conflicts - outcomes[i].result.conflicts;
                    counts.total_conflicts += outcomes[i].total_conflicts;
                } else ++counts.picks[2];
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

    // Search counters from a direct sat::solver::solve of each instance:
    // what one default-options CDCL instance spends, whichever strategy the
    // classifier picked.
    sat::solver_stats total{};
    double search_s = 0;
    // The same for the instances the classifier sends to the portfolio:
    // what a single solver would have spent on them.
    double single_ms = 0, single_conflicts = 0;
    for (std::size_t i = 0; i < round.size(); ++i) {
        const cnf_instance& inst = round[i];
        const sat::dimacs_problem problem = sat::read_dimacs(inst.dimacs);
        sat::solver s;
        problem.load_into(s);
        const bool portfolio_pick = sub::strategy::auto_select(features_of(problem)).kind == sub::strategy_kind::portfolio;
        const auto t0 = steady::now();
        const auto verdict = s.solve();
        const double ms = ms_since(t0);
        search_s += ms / 1e3;
        if ((verdict == sat::solve_result::sat) != inst.expect_sat) out.fail_check("direct solve verdict");
        const auto& st = s.stats();
        if (portfolio_pick) {
            single_ms += ms;
            single_conflicts += static_cast<double>(st.conflicts);
        }
        total.conflicts += st.conflicts;
        total.propagations += st.propagations;
        total.decisions += st.decisions;
        total.reduces += st.reduces;
        total.inprocessings += st.inprocessings;
    }
    out.metric("substrate.solve_request.picks_single", static_cast<double>(counts.picks[0]));
    out.metric("substrate.solve_request.picks_portfolio", static_cast<double>(counts.picks[1]));
    out.metric("substrate.solve_request.picks_shard", static_cast<double>(counts.picks[2]));
    out.metric("substrate.portfolio.members_run", static_cast<double>(counts.members_run));
    out.metric("substrate.portfolio.loser_conflicts", static_cast<double>(counts.loser_conflicts));
    out.metric("substrate.portfolio.total_conflicts", static_cast<double>(counts.total_conflicts));
    out.metric("substrate.portfolio.single_conflicts", single_conflicts);
    out.metric("substrate.portfolio.single_ms", single_ms);
    out.metric("sat.solver.conflicts", static_cast<double>(total.conflicts));
    out.metric("sat.solver.propagations", static_cast<double>(total.propagations));
    out.metric("sat.solver.decisions", static_cast<double>(total.decisions));
    out.metric("sat.solver.reduces", static_cast<double>(total.reduces));
    out.metric("sat.solver.inprocessings", static_cast<double>(total.inprocessings));
    out.metric("sat.solver.props_per_s", search_s > 0 ? static_cast<double>(total.propagations) / search_s : 0);
    report_trace_accounting(log, traced_round_ms, round_ms, out);
}

std::vector<std::string> selftest_cnf() {
    std::vector<std::string> bad;
    prng r(7);
    const cnf_instance inst = planted_3sat(r, 40, 4.2);
    if (!check_cnf_model(inst, inst.witness).empty()) bad.push_back("clause evaluator rejects a planted model");
    // Corrupt the model: make every literal of clause 0 false.
    std::vector<bool> corrupt = inst.witness;
    for (int l : inst.clauses[0]) corrupt[static_cast<std::size_t>(std::abs(l))] = l < 0;
    if (check_cnf_model(inst, corrupt).empty()) bad.push_back("clause evaluator accepts a falsifying model");
    // Corrupt the verdict: an unsat-by-construction instance answered sat.
    sub::cnf_outcome lie;
    lie.result.ans = sub::answer::sat;
    if (check_outcome(pigeonhole(3), lie).empty()) bad.push_back("cnf checker accepts sat on pigeonhole");
    return bad;
}

}  // namespace perfbench

// The four workloads. Each runs whole rounds of the same operations until
// the run's seconds are spent, checks every output, and fills a result with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include "common.hpp"

namespace perfbench {

void run_cnf_search(const run_options& opt, result& out);
void run_smt_blast(const run_options& opt, result& out);
void run_daemon_tenants(const run_options& opt, result& out);
void run_app_loops(const run_options& opt, result& out);

/// Shows that each checker rejects a corrupted model or verdict; an entry
/// per checker that failed to reject (empty when all reject).
std::vector<std::string> checker_self_test();

/// Reports the traced-run accounting shared by the in-process workloads:
/// self time per layer, the part of each round no layer span covers, and
/// the tracing overhead against the untraced rounds of the same run.
/// Means are used throughout, so the self times plus the uncovered part
/// add up to the traced round time exactly.
void report_trace_accounting(const span_log& log, const std::vector<double>& traced_round_ms,
                             const std::vector<double>& untraced_round_ms, result& out);

/// Per-file checker self-tests, collected by checker_self_test().
std::vector<std::string> selftest_cnf();
std::vector<std::string> selftest_bv();
std::vector<std::string> selftest_apps();

}  // namespace perfbench

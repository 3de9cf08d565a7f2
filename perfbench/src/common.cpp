#include <sys/resource.h>

#include "workloads.hpp"

namespace perfbench {

double self_peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::map<std::string, double> span_log::self_ms() const {
    std::vector<double> child_us(spans.size(), 0.0);
    for (const span_record& s : spans)
        if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += (spans[i].end_us - spans[i].start_us - child_us[i]) / 1e3;
    return out;
}

double span_log::covered_ms() const {
    double us = 0;
    for (const span_record& s : spans)
        if (s.parent < 0) us += s.end_us - s.start_us;
    return us / 1e3;
}

namespace {

double mean(const std::vector<double>& v) { return v.empty() ? 0 : sum(v) / static_cast<double>(v.size()); }

/// "sat.dimacs.parse" -> "sat.dimacs.parse_ms"; an application span
/// ("ogis") -> "ogis.ms".
std::string time_metric(const std::string& span) {
    return span.find('.') == std::string::npos ? span + ".ms" : span + "_ms";
}

}  // namespace

void report_trace_accounting(const span_log& log, const std::vector<double>& traced_round_ms,
                             const std::vector<double>& untraced_round_ms, result& out) {
    const double rounds = static_cast<double>(std::max<std::size_t>(1, traced_round_ms.size()));
    for (const auto& [span, ms] : log.self_ms()) out.metric(time_metric(span), ms / rounds);
    const double traced = mean(traced_round_ms);
    const double untraced = mean(untraced_round_ms);
    out.metric("trace.round_ms", traced);
    out.metric("trace.untraced_round_ms", untraced);
    out.metric("trace.uncovered_ms", traced - log.covered_ms() / rounds);
    out.metric("trace.overhead_ms", traced - untraced);
    out.metric("trace.spans", static_cast<double>(log.spans.size()) / rounds);
}

std::vector<std::string> checker_self_test() {
    std::vector<std::string> bad;
    for (auto part : {selftest_cnf(), selftest_bv(), selftest_apps()}) bad.insert(bad.end(), part.begin(), part.end());
    return bad;
}

}  // namespace perfbench

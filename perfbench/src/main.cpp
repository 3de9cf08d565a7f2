// perfbench — runs one workload of the repository benchmark and prints its
// result as one JSON object on the last line of stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --bin-dir DIR --tmp-dir DIR
//
// --trace 0 runs the untraced workload and reports its end-to-end metrics;
// --trace 1 runs the traced variant and reports the per-layer values it
// measured. The metrics object maps each name to its value; perfbench/run.py
// builds this binary, calls it, and attaches the units and the per-layer
// metrics a workload does not exercise from BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string json_number(double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int usage() {
    std::cerr << "usage: perfbench --workload cnf-search|smt-blast|daemon-tenants|app-loops"
                 " --seed N --seconds S --trace 0|1 --bin-dir DIR --tmp-dir DIR\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    run_options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string value = argv[++i];
        if (arg == "--workload") opt.workload = value;
        else if (arg == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
        else if (arg == "--trace") opt.trace = value == "1";
        else if (arg == "--bin-dir") opt.bin_dir = value;
        else if (arg == "--tmp-dir") opt.tmp_dir = value;
        else return usage();
    }

    // Every run first shows that each checker rejects a corrupted model or
    // verdict, so a passing run cannot come from a checker that accepts all.
    const std::vector<std::string> broken = checker_self_test();

    result out;
    try {
        if (opt.workload == "cnf-search") run_cnf_search(opt, out);
        else if (opt.workload == "smt-blast") run_smt_blast(opt, out);
        else if (opt.workload == "daemon-tenants") run_daemon_tenants(opt, out);
        else if (opt.workload == "app-loops") run_app_loops(opt, out);
        else return usage();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what() << "\n";
        return 1;
    }
    for (const auto& b : broken) out.fail_check("checker self-test: " + b);
    for (const auto& p : out.problems) std::cerr << "check failed: " << p << "\n";

    std::ostringstream js;
    js << "{\"correct\": " << (out.correct ? "true" : "false") << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : out.metrics) {
        js << (first ? "" : ", ") << "\"" << name << "\": " << json_number(value);
        first = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}

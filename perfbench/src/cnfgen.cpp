#include "cnfgen.hpp"

#include <cstdlib>
#include <numeric>
#include <set>

namespace perfbench {

void cnf_instance::render() {
    dimacs.clear();
    dimacs += "p cnf " + std::to_string(num_vars) + " " + std::to_string(clauses.size()) + "\n";
    for (const auto& c : clauses) {
        for (int l : c) {
            dimacs += std::to_string(l);
            dimacs += ' ';
        }
        dimacs += "0\n";
    }
}

namespace {

std::vector<bool> random_assignment(prng& r, int vars) {
    std::vector<bool> a(static_cast<std::size_t>(vars) + 1);
    for (int v = 1; v <= vars; ++v) a[static_cast<std::size_t>(v)] = r.coin();
    return a;
}

bool lit_true(const std::vector<bool>& a, int l) {
    return l > 0 ? a[static_cast<std::size_t>(l)] : !a[static_cast<std::size_t>(-l)];
}

/// A clause of `width` distinct variables, one literal forced true under `a`.
std::vector<int> planted_clause(prng& r, int vars, int width, const std::vector<bool>& a) {
    std::vector<int> c;
    while (static_cast<int>(c.size()) < width) {
        const int v = static_cast<int>(r.range(1, static_cast<std::uint64_t>(vars)));
        bool dup = false;
        for (int l : c) dup = dup || std::abs(l) == v;
        if (!dup) c.push_back(r.coin() ? v : -v);
    }
    bool sat = false;
    for (int l : c) sat = sat || lit_true(a, l);
    if (!sat) {
        auto& l = c[r.below(c.size())];
        l = -l;
    }
    return c;
}

}  // namespace

cnf_instance planted_3sat(prng& r, int vars, double ratio) {
    cnf_instance inst;
    inst.family = "planted3";
    inst.num_vars = vars;
    inst.expect_sat = true;
    const auto a = inst.witness = random_assignment(r, vars);
    const int m = static_cast<int>(ratio * vars);
    for (int i = 0; i < m; ++i) inst.clauses.push_back(planted_clause(r, vars, 3, a));
    inst.render();
    return inst;
}

cnf_instance redundant_planted(prng& r, int vars, double ratio, int copies) {
    cnf_instance inst;
    inst.family = "redundant";
    inst.num_vars = vars;
    inst.expect_sat = true;
    const auto a = inst.witness = random_assignment(r, vars);
    const int m = static_cast<int>(ratio * vars);
    std::vector<std::vector<int>> base;
    for (int i = 0; i < m; ++i) base.push_back(planted_clause(r, vars, 3, a));
    inst.clauses = base;
    for (int k = 0; k < copies; ++k) {
        for (const auto& c : base) {
            std::vector<int> wide = c;
            const int extra = 1 + static_cast<int>(r.below(2));
            while (static_cast<int>(wide.size()) < 3 + extra) {
                const int v = static_cast<int>(r.range(1, static_cast<std::uint64_t>(vars)));
                bool dup = false;
                for (int l : wide) dup = dup || std::abs(l) == v;
                if (!dup) wide.push_back(r.coin() ? v : -v);
            }
            inst.clauses.push_back(std::move(wide));
        }
    }
    inst.render();
    return inst;
}

cnf_instance pigeonhole(int holes) {
    cnf_instance inst;
    inst.family = "pigeonhole";
    const int pigeons = holes + 1;
    inst.num_vars = pigeons * holes;
    inst.expect_sat = false;
    auto x = [holes](int p, int h) { return p * holes + h + 1; };
    for (int p = 0; p < pigeons; ++p) {
        std::vector<int> c;
        for (int h = 0; h < holes; ++h) c.push_back(x(p, h));
        inst.clauses.push_back(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q) inst.clauses.push_back({-x(p, h), -x(q, h)});
    inst.render();
    return inst;
}

cnf_instance tseitin(prng& r, int vertices, int extra_edges, bool odd_charge) {
    cnf_instance inst;
    inst.family = odd_charge ? "tseitin_odd" : "tseitin_even";
    inst.expect_sat = !odd_charge;
    // A random spanning path keeps the graph connected (so the parity
    // argument covers every vertex); chords add cycles and hardness.
    std::vector<int> order(static_cast<std::size_t>(vertices));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[r.below(i)]);
    std::set<std::pair<int, int>> edges;
    for (int i = 0; i + 1 < vertices; ++i) {
        const int a = order[static_cast<std::size_t>(i)], b = order[static_cast<std::size_t>(i + 1)];
        edges.insert({std::min(a, b), std::max(a, b)});
    }
    std::vector<int> degree(static_cast<std::size_t>(vertices));
    for (const auto& [a, b] : edges) ++degree[static_cast<std::size_t>(a)], ++degree[static_cast<std::size_t>(b)];
    int added = 0;
    for (int tries = 0; added < extra_edges && tries < 100 * extra_edges; ++tries) {
        const int a = static_cast<int>(r.below(static_cast<std::uint64_t>(vertices)));
        const int b = static_cast<int>(r.below(static_cast<std::uint64_t>(vertices)));
        if (a == b || degree[static_cast<std::size_t>(a)] >= 4 || degree[static_cast<std::size_t>(b)] >= 4) continue;
        if (!edges.insert({std::min(a, b), std::max(a, b)}).second) continue;
        ++degree[static_cast<std::size_t>(a)], ++degree[static_cast<std::size_t>(b)];
        ++added;
    }
    std::vector<std::vector<int>> incident(static_cast<std::size_t>(vertices));
    int var = 0;
    for (const auto& [a, b] : edges) {
        ++var;
        incident[static_cast<std::size_t>(a)].push_back(var);
        incident[static_cast<std::size_t>(b)].push_back(var);
    }
    inst.num_vars = var;
    std::vector<int> charge(static_cast<std::size_t>(vertices));
    int total = 0;
    for (auto& c : charge) total += (c = static_cast<int>(r.below(2)));
    if ((total % 2 == 1) != odd_charge) charge[0] ^= 1;
    // XOR of the incident edge variables equals the charge: forbid every
    // sign pattern of the wrong parity.
    for (int v = 0; v < vertices; ++v) {
        const auto& inc = incident[static_cast<std::size_t>(v)];
        const unsigned k = static_cast<unsigned>(inc.size());
        for (unsigned mask = 0; mask < (1u << k); ++mask) {
            // `mask` is an assignment of the edges; bit set = true.
            if ((__builtin_popcount(mask) % 2) == charge[static_cast<std::size_t>(v)]) continue;
            std::vector<int> c;
            for (unsigned i = 0; i < k; ++i) c.push_back((mask >> i) & 1 ? -inc[i] : inc[i]);
            inst.clauses.push_back(c);
        }
    }
    inst.render();
    return inst;
}

std::string check_cnf_model(const cnf_instance& inst, const std::vector<bool>& model) {
    if (static_cast<int>(model.size()) < inst.num_vars + 1) return "model shorter than the variable count";
    for (std::size_t i = 0; i < inst.clauses.size(); ++i) {
        bool sat = false;
        for (int l : inst.clauses[i]) sat = sat || lit_true(model, l);
        if (!sat) return "clause " + std::to_string(i) + " falsified";
    }
    return {};
}

}  // namespace perfbench

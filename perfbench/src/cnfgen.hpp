// Seeded CNF families of known status, rendered as DIMACS text, and the
// clause evaluator that checks a returned model against the generated
// clauses. Nothing here calls into the program.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One generated instance: the DIMACS text plus what the benchmark knows
/// about it by construction.
struct cnf_instance {
    std::string family;
    int num_vars = 0;
    std::vector<std::vector<int>> clauses;  ///< DIMACS literals
    bool expect_sat = false;                ///< status known by construction
    std::vector<bool> witness;              ///< the planted assignment, when there is one
    std::string dimacs;                     ///< what the program receives

    void render();
};

/// Planted random 3-SAT: every clause is satisfied by a hidden assignment.
cnf_instance planted_3sat(prng& r, int vars, double ratio);
/// Planted 3-SAT plus widened copies of its clauses (each copy gains extra
/// literals): satisfiable by the same hidden assignment, and large enough
/// to sit between the strategy classifier's size thresholds.
cnf_instance redundant_planted(prng& r, int vars, double ratio, int copies);
/// Pigeonhole principle, `holes + 1` pigeons into `holes` holes: unsat.
cnf_instance pigeonhole(int holes);
/// Tseitin parity constraints on a random connected graph: unsat when the
/// total charge is odd, satisfiable when it is even.
cnf_instance tseitin(prng& r, int vertices, int extra_edges, bool odd_charge);

/// Evaluates every clause under `model` (model[v] for variable v >= 1).
/// Returns an empty string when all are satisfied, else the first failure.
std::string check_cnf_model(const cnf_instance& inst, const std::vector<bool>& model);

}  // namespace perfbench

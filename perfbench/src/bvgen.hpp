// Seeded QF_BV formulas of known status. A formula is the benchmark's own
// small DAG: it renders as SMT-LIB2 text (for the front door), builds terms
// in a term manager (for the daemon's tenants), and evaluates under a model
// with 64-bit masks — the independent check of every sat verdict.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace sciduction::smt {
class term_manager;
struct term;
}  // namespace sciduction::smt

namespace perfbench {

enum class bvop : std::uint8_t { var, cnst, add, sub, mul, udiv, urem, shl, lshr, band, bor, bxor, bnot, neg };

struct bvnode {
    bvop op = bvop::cnst;
    unsigned width = 8;
    std::uint64_t value = 0;  ///< constant value, or variable index for `var`
    int a = -1, b = -1;       ///< operand node indices (always lower than this node)
};

enum class atom_kind : std::uint8_t { eq, ne, uge };

struct bvatom {
    atom_kind k = atom_kind::eq;
    int a = -1, b = -1;
};

struct bvformula {
    std::string family;
    bool expect_sat = false;  ///< status known by construction
    std::vector<std::uint64_t> witness;  ///< the planted variable values, when sat
    std::vector<std::string> var_names;
    std::vector<unsigned> var_widths;
    std::vector<bvnode> nodes;
    std::vector<bvatom> atoms;  ///< all asserted

    int var(const std::string& name, unsigned width);
    int cnst(unsigned width, std::uint64_t v);
    int op(bvop o, int a, int b = -1);
    void assert_atom(atom_kind k, int a, int b) { atoms.push_back({k, a, b}); }

    /// SMT-LIB2 script text (declarations, assertions, check-sat).
    [[nodiscard]] std::string smtlib() const;
    /// Builds the assertions as terms in `tm`; variable terms land in `vars`.
    std::vector<sciduction::smt::term> build(sciduction::smt::term_manager& tm,
                                             std::vector<sciduction::smt::term>& vars) const;
    /// Evaluates every atom under the variable values; empty when all hold.
    [[nodiscard]] std::string check_model(const std::vector<std::uint64_t>& values) const;
    /// The same formula with variables renamed by `prefix` and the operands
    /// of every commutative operation swapped: alpha-equivalent, so a
    /// structural cache must recognise it.
    [[nodiscard]] bvformula renamed_commuted(const std::string& prefix) const;
};

inline std::uint64_t width_mask(unsigned w) { return w >= 64 ? ~0ULL : ((1ULL << w) - 1); }

/// Identity families of gen_identity.
inline constexpr int identity_families = 8;
/// One identity (negated, so unsat by algebra) of the given family, at a
/// fixed width that keeps it cheap; the seed picks shift amounts.
bvformula gen_identity(prng& r, const std::string& prefix, int family);
/// A planted-solution equation f(a, b, c) == f(a0, b0, c0) over bvmul /
/// bvudiv / bvurem / a shift at `width`: sat by construction.
bvformula gen_planted(prng& r, const std::string& prefix, unsigned width);
/// A planted add/xor chain of `length` levels at `width`: sat.
bvformula gen_chain(prng& r, const std::string& prefix, unsigned width, int length);

}  // namespace perfbench

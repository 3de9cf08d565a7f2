#include "bvgen.hpp"

#include <functional>

#include "smt/term.hpp"

namespace perfbench {

int bvformula::var(const std::string& name, unsigned width) {
    var_names.push_back(name);
    var_widths.push_back(width);
    nodes.push_back({bvop::var, width, var_names.size() - 1, -1, -1});
    return static_cast<int>(nodes.size()) - 1;
}

int bvformula::cnst(unsigned width, std::uint64_t v) {
    nodes.push_back({bvop::cnst, width, v & width_mask(width), -1, -1});
    return static_cast<int>(nodes.size()) - 1;
}

int bvformula::op(bvop o, int a, int b) {
    nodes.push_back({o, nodes[static_cast<std::size_t>(a)].width, 0, a, b});
    return static_cast<int>(nodes.size()) - 1;
}

namespace {

const char* op_name(bvop o) {
    switch (o) {
        case bvop::add: return "bvadd";
        case bvop::sub: return "bvsub";
        case bvop::mul: return "bvmul";
        case bvop::udiv: return "bvudiv";
        case bvop::urem: return "bvurem";
        case bvop::shl: return "bvshl";
        case bvop::lshr: return "bvlshr";
        case bvop::band: return "bvand";
        case bvop::bor: return "bvor";
        case bvop::bxor: return "bvxor";
        case bvop::bnot: return "bvnot";
        case bvop::neg: return "bvneg";
        default: return "?";
    }
}

bool commutative(bvop o) {
    return o == bvop::add || o == bvop::mul || o == bvop::band || o == bvop::bor || o == bvop::bxor;
}

/// Node values under the variable assignment, with SMT-LIB semantics for
/// division by zero and over-wide shifts.
std::vector<std::uint64_t> evaluate(const bvformula& f, const std::vector<std::uint64_t>& values) {
    std::vector<std::uint64_t> v(f.nodes.size());
    for (std::size_t i = 0; i < f.nodes.size(); ++i) {
        const bvnode& n = f.nodes[i];
        const std::uint64_t m = width_mask(n.width);
        const std::uint64_t x = n.a >= 0 ? v[static_cast<std::size_t>(n.a)] : 0;
        const std::uint64_t y = n.b >= 0 ? v[static_cast<std::size_t>(n.b)] : 0;
        std::uint64_t r = 0;
        switch (n.op) {
            case bvop::var: r = values[n.value]; break;
            case bvop::cnst: r = n.value; break;
            case bvop::add: r = x + y; break;
            case bvop::sub: r = x - y; break;
            case bvop::mul: r = x * y; break;
            case bvop::udiv: r = y == 0 ? m : x / y; break;
            case bvop::urem: r = y == 0 ? x : x % y; break;
            case bvop::shl: r = y >= n.width ? 0 : x << y; break;
            case bvop::lshr: r = y >= n.width ? 0 : x >> y; break;
            case bvop::band: r = x & y; break;
            case bvop::bor: r = x | y; break;
            case bvop::bxor: r = x ^ y; break;
            case bvop::bnot: r = ~x; break;
            case bvop::neg: r = 0 - x; break;
        }
        v[i] = r & m;
    }
    return v;
}

}  // namespace

std::string bvformula::smtlib() const {
    std::string out = "(set-logic QF_BV)\n";
    for (std::size_t i = 0; i < var_names.size(); ++i)
        out += "(declare-fun " + var_names[i] + " () (_ BitVec " + std::to_string(var_widths[i]) + "))\n";
    std::function<void(int)> emit = [&](int idx) {
        const bvnode& n = nodes[static_cast<std::size_t>(idx)];
        if (n.op == bvop::var) {
            out += var_names[n.value];
        } else if (n.op == bvop::cnst) {
            out += "(_ bv" + std::to_string(n.value) + " " + std::to_string(n.width) + ")";
        } else {
            out += '(';
            out += op_name(n.op);
            out += ' ';
            emit(n.a);
            if (n.b >= 0) {
                out += ' ';
                emit(n.b);
            }
            out += ')';
        }
    };
    for (const bvatom& a : atoms) {
        static const char* names[] = {"=", "distinct", "bvuge"};
        out += "(assert (";
        out += names[static_cast<int>(a.k)];
        out += ' ';
        emit(a.a);
        out += ' ';
        emit(a.b);
        out += "))\n";
    }
    out += "(check-sat)\n";
    return out;
}

std::vector<sciduction::smt::term> bvformula::build(sciduction::smt::term_manager& tm,
                                                    std::vector<sciduction::smt::term>& vars) const {
    using sciduction::smt::term;
    std::vector<term> t(nodes.size());
    vars.assign(var_names.size(), term{});
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const bvnode& n = nodes[i];
        const term x = n.a >= 0 ? t[static_cast<std::size_t>(n.a)] : term{};
        const term y = n.b >= 0 ? t[static_cast<std::size_t>(n.b)] : term{};
        switch (n.op) {
            case bvop::var: t[i] = vars[n.value] = tm.mk_bv_var(var_names[n.value], n.width); break;
            case bvop::cnst: t[i] = tm.mk_bv_const(n.width, n.value); break;
            case bvop::add: t[i] = tm.mk_bvadd(x, y); break;
            case bvop::sub: t[i] = tm.mk_bvsub(x, y); break;
            case bvop::mul: t[i] = tm.mk_bvmul(x, y); break;
            case bvop::udiv: t[i] = tm.mk_bvudiv(x, y); break;
            case bvop::urem: t[i] = tm.mk_bvurem(x, y); break;
            case bvop::shl: t[i] = tm.mk_bvshl(x, y); break;
            case bvop::lshr: t[i] = tm.mk_bvlshr(x, y); break;
            case bvop::band: t[i] = tm.mk_bvand(x, y); break;
            case bvop::bor: t[i] = tm.mk_bvor(x, y); break;
            case bvop::bxor: t[i] = tm.mk_bvxor(x, y); break;
            case bvop::bnot: t[i] = tm.mk_bvnot(x); break;
            case bvop::neg: t[i] = tm.mk_bvneg(x); break;
        }
    }
    std::vector<term> out;
    for (const bvatom& a : atoms) {
        const term x = t[static_cast<std::size_t>(a.a)], y = t[static_cast<std::size_t>(a.b)];
        switch (a.k) {
            case atom_kind::eq: out.push_back(tm.mk_eq(x, y)); break;
            case atom_kind::ne: out.push_back(tm.mk_distinct(x, y)); break;
            case atom_kind::uge: out.push_back(tm.mk_uge(x, y)); break;
        }
    }
    return out;
}

std::string bvformula::check_model(const std::vector<std::uint64_t>& values) const {
    if (values.size() != var_names.size()) return "model has the wrong number of variables";
    const auto v = evaluate(*this, values);
    for (std::size_t i = 0; i < atoms.size(); ++i) {
        const std::uint64_t x = v[static_cast<std::size_t>(atoms[i].a)];
        const std::uint64_t y = v[static_cast<std::size_t>(atoms[i].b)];
        bool ok = false;
        switch (atoms[i].k) {
            case atom_kind::eq: ok = x == y; break;
            case atom_kind::ne: ok = x != y; break;
            case atom_kind::uge: ok = x >= y; break;
        }
        if (!ok) return family + ": assertion " + std::to_string(i) + " false under the model";
    }
    return {};
}

bvformula bvformula::renamed_commuted(const std::string& prefix) const {
    bvformula f = *this;
    for (auto& name : f.var_names) name = prefix + name.substr(name.find('_') + 1);
    for (auto& n : f.nodes)
        if (commutative(n.op)) std::swap(n.a, n.b);
    for (auto& a : f.atoms)
        if (a.k == atom_kind::eq || a.k == atom_kind::ne) std::swap(a.a, a.b);
    return f;
}

bvformula gen_identity(prng& r, const std::string& prefix, int family) {
    bvformula f;
    f.expect_sat = false;
    auto w_in = [&](unsigned lo, unsigned hi) { return static_cast<unsigned>(r.range(lo, hi)); };
    switch (family) {
        case 0: {  // x == (x / y) * y + x % y for y != 0
            const unsigned w = 5;
            f.family = "div_identity";
            const int x = f.var(prefix + "x", w), y = f.var(prefix + "y", w);
            const int rhs = f.op(bvop::add, f.op(bvop::mul, f.op(bvop::udiv, x, y), y), f.op(bvop::urem, x, y));
            f.assert_atom(atom_kind::ne, y, f.cnst(w, 0));
            f.assert_atom(atom_kind::ne, x, rhs);
            break;
        }
        case 1: {  // x % y < y for y != 0
            const unsigned w = 7;
            f.family = "urem_bound";
            const int x = f.var(prefix + "x", w), y = f.var(prefix + "y", w);
            f.assert_atom(atom_kind::ne, y, f.cnst(w, 0));
            f.assert_atom(atom_kind::uge, f.op(bvop::urem, x, y), y);
            break;
        }
        case 2: {  // x * 2^k == x << k
            const unsigned w = 16;
            const unsigned k = w_in(1, w - 1);
            f.family = "shift_mul";
            const int x = f.var(prefix + "x", w);
            f.assert_atom(atom_kind::ne, f.op(bvop::mul, x, f.cnst(w, 1ULL << k)), f.op(bvop::shl, x, f.cnst(w, k)));
            break;
        }
        case 3: {  // De Morgan
            const unsigned w = 32;
            f.family = "demorgan";
            const int x = f.var(prefix + "x", w), y = f.var(prefix + "y", w);
            f.assert_atom(atom_kind::ne, f.op(bvop::bnot, f.op(bvop::band, x, y)),
                          f.op(bvop::bor, f.op(bvop::bnot, x), f.op(bvop::bnot, y)));
            break;
        }
        case 4: {  // (x + y) + z == x + (z + y)
            const unsigned w = 10;
            f.family = "add_assoc";
            const int x = f.var(prefix + "x", w), y = f.var(prefix + "y", w), z = f.var(prefix + "z", w);
            f.assert_atom(atom_kind::ne, f.op(bvop::add, f.op(bvop::add, x, y), z),
                          f.op(bvop::add, x, f.op(bvop::add, z, y)));
            break;
        }
        case 5: {  // x * (y + z) == x * y + x * z
            const unsigned w = 4;
            f.family = "mul_distrib";
            const int x = f.var(prefix + "x", w), y = f.var(prefix + "y", w), z = f.var(prefix + "z", w);
            f.assert_atom(atom_kind::ne, f.op(bvop::mul, x, f.op(bvop::add, y, z)),
                          f.op(bvop::add, f.op(bvop::mul, x, y), f.op(bvop::mul, x, z)));
            break;
        }
        case 6: {  // (x << k) >> k == x & (mask >> k)
            const unsigned w = 16;
            const unsigned k = w_in(1, w - 1);
            f.family = "shift_mask";
            const int x = f.var(prefix + "x", w);
            f.assert_atom(atom_kind::ne, f.op(bvop::lshr, f.op(bvop::shl, x, f.cnst(w, k)), f.cnst(w, k)),
                          f.op(bvop::band, x, f.cnst(w, width_mask(w) >> k)));
            break;
        }
        default: {  // x - y == x + (-y)
            const unsigned w = 16;
            f.family = "sub_neg";
            const int x = f.var(prefix + "x", w), y = f.var(prefix + "y", w);
            f.assert_atom(atom_kind::ne, f.op(bvop::sub, x, y), f.op(bvop::add, x, f.op(bvop::neg, y)));
            break;
        }
    }
    return f;
}

bvformula gen_planted(prng& r, const std::string& prefix, unsigned width) {
    bvformula f;
    f.family = "planted";
    f.expect_sat = true;
    // One fixed shape, so the cost varies only with the seeded constants
    // and the planted values: ((a * K) + b / (c | 1)) ^ ((a % (b | 1)) >> k).
    const int a = f.var(prefix + "a", width), b = f.var(prefix + "b", width), c = f.var(prefix + "c", width);
    const int one = f.cnst(width, 1);
    const int t1 = f.op(bvop::mul, a, f.cnst(width, r.next() | 1));
    const int t2 = f.op(bvop::udiv, b, f.op(bvop::bor, c, one));
    const int t3 = f.op(bvop::lshr, f.op(bvop::urem, a, f.op(bvop::bor, b, one)), f.cnst(width, r.below(3)));
    const int root = f.op(bvop::bxor, f.op(bvop::add, t1, t2), t3);
    std::vector<std::uint64_t> x0;
    for (int i = 0; i < 3; ++i) x0.push_back(r.next() & width_mask(width));
    // Plant: the right-hand side is the left-hand side at x0.
    const std::uint64_t value = evaluate(f, x0)[static_cast<std::size_t>(root)];
    f.witness = x0;
    f.assert_atom(atom_kind::eq, root, f.cnst(width, value));
    return f;
}

bvformula gen_chain(prng& r, const std::string& prefix, unsigned width, int length) {
    bvformula f;
    f.family = "chain";
    f.expect_sat = true;
    const int x = f.var(prefix + "x", width);
    int t = x;
    for (int i = 0; i < length; ++i)
        t = f.op(i % 3 == 2 ? bvop::bxor : bvop::add, t, f.cnst(width, r.next()));
    const std::uint64_t x0 = r.next() & width_mask(width);
    const std::uint64_t c = evaluate(f, {x0})[static_cast<std::size_t>(t)];
    f.witness = {x0};
    f.assert_atom(atom_kind::eq, t, f.cnst(width, c));
    return f;
}

}  // namespace perfbench

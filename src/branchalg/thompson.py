"""Tree-transformation generators and their defining relation suites.

Builds the standard prefix-substitution generators (the two projections, the
doubling map, the swap, the rotation, and their deferred variants) as terms
from hand-written closed forms, and verifies whole presentation suites
against the concrete tree-relation model.  The tests check the closed forms
against the generators' tree-pair notation, kept in tests/oracles.py.

A closed relation is checked by model.relation_holds.  A quantified one
(m_split, m_reconstruct, m_commute, F1, F2, pairing) is built once with
variables and evaluated by model.verdicts with the variables bound to the
values of the sample terms: over a grid in product order for M's sample
functionals and F1's fork pool, so each subterm is computed over the axes
of its own variables only, and over check-law's seeded draws
(model._draws) for F2 and pairing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import branchrel, model
from .terms import (
    A as GEN_A,
    B as GEN_B,
    ID,
    TOP,
    Conv,
    Meet,
    Term,
    Var,
    comp,
    conv,
    meet,
)


def nabla(x: Term, y: Term) -> Term:
    """Fork: route x through the left projection and y through the right."""
    return Meet(comp(x, Conv(GEN_A)), comp(y, Conv(GEN_B)))


def otimes(x: Term, y: Term) -> Term:
    """Parallel product: apply x inside the left subtree and y inside the right."""
    return Meet(comp(GEN_A, x, Conv(GEN_A)), comp(GEN_B, y, Conv(GEN_B)))


def fkc(x: Term, y: Term) -> Term:
    """Co-fork: a;x meet b;y."""
    return Meet(comp(GEN_A, x), comp(GEN_B, y))


def defer0(x: Term) -> Term:
    """Apply x inside the left subtree only."""
    return otimes(x, ID)


def defer1(x: Term) -> Term:
    """Apply x inside the right subtree only."""
    return otimes(ID, x)


CA, CB = Conv(GEN_A), Conv(GEN_B)

# closed forms of the ten named generators
_A_TERM = meet(comp(GEN_A, CA, CA), comp(GEN_B, GEN_A, CB, CA), comp(GEN_B, GEN_B, CB))
_P_TERM = meet(comp(GEN_A, CB), comp(GEN_B, CA))
_C_TERM = meet(comp(GEN_A, CB, CB), comp(GEN_B, GEN_A, CA), comp(GEN_B, GEN_B, CA, CB))
_PI0_TERM = meet(
    comp(GEN_A, CA, CB), comp(GEN_B, GEN_A, CA), comp(GEN_B, GEN_B, CB, CB)
)

GENERATORS: dict[str, Term] = {
    "K": GEN_A,
    "L": GEN_B,
    "U": Meet(CA, CB),
    "P": _P_TERM,
    "P0": defer0(_P_TERM),
    "A": _A_TERM,
    "R": _A_TERM,
    "R0": defer0(_A_TERM),
    "B": defer1(_A_TERM),
    "C": _C_TERM,
    "pi0": _PI0_TERM,
}


def _derived() -> dict[str, Term]:
    g = GENERATORS
    a_t, b_t, c_t, p0_t = g["A"], g["B"], g["C"], g["pi0"]
    x2 = comp(a_t, b_t, conv(a_t))
    x3 = comp(a_t, a_t, b_t, conv(a_t), conv(a_t))
    c2 = comp(b_t, c_t, conv(a_t))
    c3 = comp(b_t, b_t, c_t, conv(a_t), conv(a_t))
    pi1 = comp(c2, p0_t, conv(c2))
    return {
        "X1": b_t,
        "X2": x2,
        "X3": x3,
        "C1": c_t,
        "C2": c2,
        "C3": c3,
        "pi1": pi1,
        "pi2": comp(a_t, pi1, conv(a_t)),
        "pi3": comp(a_t, a_t, pi1, conv(a_t), conv(a_t)),
    }


DERIVED: dict[str, Term] = _derived()


# --- suites ---------------------------------------------------------------


@dataclass
class SuiteReport:
    suite_id: str
    results: list[tuple[str, bool]]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.results)

    @property
    def failed_names(self) -> list[str]:
        return [name for name, ok in self.results if not ok]

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        failed = ",".join(self.failed_names)
        return (
            f"SUITE {self.suite_id} {status} relations={len(self.results)}"
            f" failed=[{failed}]"
        )


# --- the suite equations ---------------------------------------------------
#
# Each defining equation is written once, here.  The suites below check it on
# concrete generator terms in the tree-relation model; laws.py quantifies the
# same equations over variables to build the catalog laws.


def qu_relations() -> list[tuple[str, Term, Term]]:
    """The six defining identities of the generator pair."""
    return [
        ("qu1", comp(CA, GEN_A), ID),
        ("qu2", comp(CB, GEN_B), ID),
        ("qu3", Meet(comp(GEN_A, CA), comp(GEN_B, CB)), ID),
        ("qu4", comp(CA, GEN_B), TOP),
        ("qu5", comp(GEN_A, TOP), TOP),
        ("qu6", comp(GEN_B, TOP), TOP),
    ]


def ta_relations() -> list[tuple[str, Term, Term]]:
    g = dict(GENERATORS)
    g.update(DERIVED)
    a_t, b_t, c_t = g["A"], g["B"], g["C"]
    x2, x3, c2, c3 = g["X2"], g["X3"], g["C2"], g["C3"]
    pi1, pi2, pi3 = g["pi1"], g["pi2"], g["pi3"]
    ba = comp(conv(b_t), a_t)
    return [
        ("ta1", comp(ba, x2), comp(x2, ba)),
        ("ta2", comp(ba, x3), comp(x3, ba)),
        ("ta3", c_t, comp(c2, b_t)),
        ("ta4", comp(x2, c2), comp(c3, b_t)),
        ("ta5", comp(a_t, c_t), comp(c2, c2)),
        ("ta6", comp(c_t, c_t, c_t), ID),
        ("ta7", comp(pi1, pi1), ID),
        ("ta8", comp(pi3, pi1), comp(pi1, pi3)),
        ("ta9", comp(pi1, pi2, pi1, pi2, pi1, pi2), ID),
        ("ta10", comp(pi1, x3), comp(x3, pi1)),
        ("ta11", comp(x2, pi1), comp(pi1, pi2, b_t)),
        ("ta12", comp(b_t, pi2), comp(pi3, b_t)),
        ("ta13", comp(c3, pi1), comp(pi2, c3)),
        ("ta14", comp(c2, pi1, c2, pi1, c2, pi1), ID),
    ]


def m_relations() -> list[tuple[str, Term, Term]]:
    """The closed relations of the monoid suite: the three relations of P and
    R (law m-invert), then the nine rewrites of the deferred generators (law
    m-rewrite)."""
    g = GENERATORS
    p, r, u, k, l, p0, r0 = (g[n] for n in ("P", "R", "U", "K", "L", "P0", "R0"))
    return [
        ("P;P=id", comp(p, p), ID),
        ("(P;R)^3=id", comp(p, r, p, r, p, r), ID),
        ("(R;P)^3=id", comp(r, p, r, p, r, p), ID),
        ("U;K=id", comp(u, k), ID),
        ("U;L=id", comp(u, l), ID),
        ("P0;K;K=K;L", comp(p0, k, k), comp(k, l)),
        ("P0;K;L=K;K", comp(p0, k, l), comp(k, k)),
        ("P0;L=L", comp(p0, l), l),
        ("R0;K;K;K=K;K", comp(r0, k, k, k), comp(k, k)),
        ("R0;K;K;L=K;L;K", comp(r0, k, k, l), comp(k, l, k)),
        ("R0;K;L=K;L;L", comp(r0, k, l), comp(k, l, l)),
        ("R0;L=L", comp(r0, l), l),
    ]


def m_split(x: Term) -> tuple[Term, Term]:
    """x;U = U;defer0(x);defer1(x), for functional x."""
    u = GENERATORS["U"]
    return comp(x, u), comp(u, defer0(x), defer1(x))


def m_reconstruct(x: Term) -> tuple[Term, Term]:
    """x = U;defer0(x);defer1(x);defer0(K);defer1(L), for functional x."""
    g = GENERATORS
    rhs = comp(g["U"], defer0(x), defer1(x), defer0(g["K"]), defer1(g["L"]))
    return x, rhs


def m_commute(x: Term, y: Term) -> tuple[Term, Term]:
    """Deferred maps on different subtrees commute."""
    return comp(defer0(x), defer1(y)), comp(defer1(y), defer0(x))


def fork_f1(x: Term, y: Term) -> tuple[Term, Term]:
    """F1: the fork of x and y, written with the forks of id and 1."""
    return nabla(x, y), Meet(comp(x, nabla(ID, TOP)), comp(y, nabla(TOP, ID)))


def fork_f2(u: Term, v: Term, x: Term, y: Term) -> tuple[Term, Term]:
    """F2: a fork composed with the converse of a fork is a meet."""
    lhs = Meet(comp(u, conv(v)), comp(x, conv(y)))
    return lhs, comp(nabla(u, x), conv(nabla(v, y)))


def fork_f3() -> tuple[Term, Term]:
    """F3, an inclusion: the fork of the two converse one-sided forks lies
    below the identity."""
    return nabla(conv(nabla(ID, TOP)), conv(nabla(TOP, ID))), ID


def pairing(u: Term, v: Term, x: Term, y: Term) -> tuple[Term, Term]:
    """The pairing equation u;v & x;y = (u;conv(a) & x;conv(b));(a;v & b;y)."""
    return Meet(comp(u, v), comp(x, y)), comp(nabla(u, x), fkc(v, y))


def _word(letters: str) -> Term:
    return comp(*(GENERATORS[ch] for ch in letters))


def sample_functionals() -> list[tuple[str, Term]]:
    """Published sample for the monoid suite: generator words of length <= 3
    over the two projections, plus the ten named generators."""
    out: list[tuple[str, Term]] = [("id", ID)]
    for n in (1, 2, 3):
        for w in itertools.product("ab", repeat=n):
            word = "".join(w)
            out.append((word, comp(*(GEN_A if ch == "a" else GEN_B for ch in w))))
    seen = set()
    for name, t in GENERATORS.items():
        if id(t) not in seen:
            seen.add(id(t))
            out.append((name, t))
    return out


def _fork_pool() -> list[tuple[str, Term]]:
    return [
        ("id", ID),
        ("a", GEN_A),
        ("b", GEN_B),
        ("aa", comp(GEN_A, GEN_A)),
        ("ab", comp(GEN_A, GEN_B)),
        ("ba", comp(GEN_B, GEN_A)),
        ("bb", comp(GEN_B, GEN_B)),
        ("a~", CA),
        ("b~", CB),
        ("U", GENERATORS["U"]),
        ("P", GENERATORS["P"]),
        ("1", TOP),
    ]


def run_suite(suite_id: str, seed: int = 0) -> SuiteReport:
    """Run one suite on a fresh tree-relation model handle, whose memo serves
    the suite's repeated compositions and comparisons."""
    suite = _SUITES.get(suite_id)
    if suite is None:
        raise ValueError(f"unknown suite {suite_id!r}")
    return SuiteReport(suite_id, suite(branchrel.model_handle(), seed))


def _values(m, named) -> list[tuple[str, object]]:
    """Each named sample term with its value in m."""
    return [(name, model.eval_term(m, t, {})) for name, t in named]


def _verdicts(m, schema, variables: str, blocks) -> list[bool]:
    """Whether schema(*variables) holds at each assignment of blocks
    (model._grids or model._draws), which bind the space-separated
    variables in order.  The schema is built and compiled once, so each
    sample is a value bound to a variable, not a term substituted in."""
    names = variables.split()
    lhs, rhs = schema(*map(Var, names))
    return model.verdicts(m, (lhs, "=", rhs), names, blocks)


def _on_grid(m, label, schema, variables: str, pool) -> list[tuple[str, bool]]:
    """schema at every tuple of pool values, in product order, each named
    label[names]; pool holds (name, value) pairs."""
    names, values = zip(*pool)
    k = len(variables.split())
    oks = _verdicts(m, schema, variables, model._grids([values] * k))
    tuples = itertools.product(names, repeat=k)
    return [(f"{label}[{','.join(ns)}]", ok) for ns, ok in zip(tuples, oks)]


def _on_draws(m, label, schema, pool, seed) -> list[tuple[str, bool]]:
    """schema at the 200 draws of four (name, value) pool entries that
    check-law --strategy sample=200 makes at seed, named label[names]#i."""
    names, values = zip(*pool)
    sample = model.Sample(200, seed)
    oks = _verdicts(m, schema, "u v x y", model._draws(values, 4, sample))
    rows = (",".join(r) for cols, _ in model._draws(names, 4, sample) for r in zip(*cols))
    return [(f"{label}[{ns}]#{i}", ok) for i, (ns, ok) in enumerate(zip(rows, oks))]


def _each_holds(m, relations) -> list[tuple[str, bool]]:
    eqs = ((name, (lhs, "=", rhs)) for name, lhs, rhs in relations)
    return [(name, model.relation_holds(m, eq, {})) for name, eq in eqs]


def _suite_perms(m, seed):
    functional_only = {
        "K": GENERATORS["K"],
        "L": GENERATORS["L"],
        "U": GENERATORS["U"],
        "conv(U)": conv(GENERATORS["U"]),
    }
    permutational = {
        n: GENERATORS[n] for n in ("P", "P0", "A", "R0", "B", "C", "pi0")
    }

    def all_hold(relations):
        return all(model.relation_holds(m, r, {}) for r in relations)

    out = []
    for name, t in functional_only.items():
        ok = all_hold(model.functional(t)) and not all_hold(model.permutational(t))
        out.append((f"{name} functional-only", ok))
    for name, t in permutational.items():
        out.append((f"{name} permutational", all_hold(model.permutational(t))))
    return out


def _suite_m(m, seed):
    pool = _values(m, sample_functionals())
    return (
        _each_holds(m, m_relations())
        + _on_grid(m, "split", m_split, "x", pool)
        + _on_grid(m, "reconstruct", m_reconstruct, "x", pool)
        + _on_grid(m, "commute", m_commute, "x y", pool)
    )


def _suite_same(m, seed):
    return _each_holds(m, [
        ("P0 word", GENERATORS["P0"], _word("URPRRKPRRKRPRKR")),
        ("R0 word", GENERATORS["R0"], _word("URPRRRPRKRKRRKRRKPRPRR")),
    ])


def _suite_fork(m, seed):
    f3, f3_bound = fork_f3()
    out = [("F3", model.relation_holds(m, (f3, "<=", f3_bound), {}))]
    pool = _values(m, _fork_pool())
    out += _on_grid(m, "F1", fork_f1, "x y", pool)
    return out + _on_draws(m, "F2", fork_f2, pool, seed)


def _suite_pairing(m, seed):
    return _on_draws(m, "Pr", pairing, _values(m, _fork_pool()), seed)


# each suite maps the model handle and the seed to its named results
_SUITES = {
    "qu": lambda m, seed: _each_holds(m, qu_relations()),
    "perms": _suite_perms,
    "F": lambda m, seed: _each_holds(m, ta_relations()[:2]),
    "T": lambda m, seed: _each_holds(m, ta_relations()[:6]),
    "V": lambda m, seed: _each_holds(m, ta_relations()),
    "M": _suite_m,
    "same": _suite_same,
    "fork": _suite_fork,
    "pairing": _suite_pairing,
}

SUITE_IDS = tuple(_SUITES)

"""The fixed catalog of checkable laws.

Each law packages a universally quantified implication between term
(in)equations.  Laws marked theorem=True hold in every model of the axioms
(their failure indicates an implementation bug); the product-decomposition
formulas J, L, and M are included as checkable formulas precisely because
they fail in some finite algebras.

Laws that the source statements phrase with the two distinguished generators
use the generator symbols directly: in the tree-relation model these are the
fixed generators, while finite models quantify them like ordinary variables.

The equations of the suites (the six identities of the generator pair, the
presentation, monoid, fork and pairing equations) are written once in
thompson.py; the laws here quantify them over variables.  The catalog is
built on first use and kept for the process.

The guards the theorems are stated under are written once, in model.py:
functional, permutational and total build "t functional", "t permutational"
and the Domain condition 1 = t;1 for each term t, and the named hypothesis
lists (Q_HYPS, D_HYPS, U_HYPS, QP_DOMAIN, J_HYP, PAIR_HYPS, PAIR2_HYPS) are
built from them.  A law whose conclusion is itself a guard, f-closed and
g-closed included, uses the same builder.
"""

from __future__ import annotations

import functools

from . import UsageError, thompson
from .model import Law, Relation, functional, permutational, total
from .terms import A, B, ID, Comp, Conv, Meet, Term, Var, comp, conv, parse_term
from .thompson import GENERATORS, fkc, nabla, otimes


def _rel(spec) -> Relation:
    if isinstance(spec, tuple):
        return spec
    if "<=" in spec:
        lhs, rhs = spec.split("<=", 1)
        return (parse_term(lhs), "<=", parse_term(rhs))
    lhs, rhs = spec.split("=", 1)
    return (parse_term(lhs), "=", parse_term(rhs))


def _eq(sides: tuple[Term, Term], op: str = "=") -> Relation:
    """The relation lhs op rhs of a (lhs, rhs) pair; an equation by default."""
    return (sides[0], op, sides[1])


def _law(law_id, variables, hyps, concls, *, theorem=True, part="II"):
    return Law(
        id=law_id,
        variables=tuple(variables.split()) if variables else (),
        hypotheses=tuple(_rel(h) for h in hyps),
        conclusions=tuple(_rel(c) for c in concls),
        theorem=theorem,
        part=part,
    )


# the Domain condition of the quasiprojections a, b
QP_DOMAIN = "1 = conv(a);b"
Q_HYPS = functional(A, B) + [QP_DOMAIN]
D_HYPS = total(A, B)
U_HYPS = ["a;conv(a) & b;conv(b) <= id"]
# J's hypothesis, also read by K and the pair2 laws
J_HYP = "conv(u);x & v;conv(y) <= conv(a);b"
_C, _D = Var("c"), Var("d")
PAIR_HYPS = ["u <= conv(c);d", "v;conv(y) <= conv(a);b"] + functional(_C, _D)
PAIR2_HYPS = functional(_C, _D) + ["u;v & x;y <= conv(c);d"]


def _axiom_laws():
    eqs = [
        ("jax-meet-assoc", "x y z", "x & (y & z) = (x & y) & z"),
        ("jax-meet-comm", "x y", "x & y = y & x"),
        ("jax-meet-idem", "x", "x & x = x"),
        ("jax-comp-assoc", "x y z", "x;(y;z) = (x;y);z"),
        ("jax-identity", "x", "x;id = x"),
        ("jax-mon", "x y z", "(x & y);z = (x & y);z & y;z"),
        ("jax-conv-invol", "x", "conv(conv(x)) = x"),
        ("jax-conv-comp", "x y", "conv(x;y) = conv(y);conv(x)"),
        ("jax-conv-meet", "x y", "conv(x & y) = conv(x) & conv(y)"),
        ("jax-rot", "x y z", "x;y & z = (z;conv(y) & x);(y & conv(x);z) & z"),
        ("jax-zero", "x", "0 & x = 0"),
        ("jax-one", "x", "x & 1 = x"),
        ("jax-norm", "x", "x;0 = 0"),
    ]
    return [_law(i, v, [], [c], part="I") for i, v, c in eqs]


def _elementary_laws():
    return [
        _law("p1", "x y z", ["x <= y", "y <= z"], ["x <= z"]),
        _law("p1-refl", "x", [], ["x <= x"]),
        _law("p1-antisym", "x y", ["x <= y", "y <= x"], ["x = y"]),
        _law("p2", "x y", [], ["x & y <= y", "x & y <= x"]),
        _law("p3", "x y z", ["x <= y", "x <= z"], ["x <= y & z"]),
        _law("p4", "u v x y", ["x <= y", "u <= v"], ["x & u <= y & v"]),
        _law(
            "p5",
            "x",
            [],
            ["conv(0) = 0", "conv(1) = 1", "conv(id) = id", "0;x = 0", "id;x = x"],
        ),
        _law(
            "p6",
            "x y z",
            ["x <= y"],
            ["conv(x) <= conv(y)", "x;z <= y;z", "z;x <= z;y"],
        ),
        _law("p7", "u v x y", [], ["(u & v);(x & y) <= u;x & v;y"]),
        _law(
            "p8",
            "x y z",
            [],
            ["x;y & z <= (z;conv(y) & x);y", "x;y & z <= x;(y & conv(x);z)"],
        ),
        _law("p9", "x", [], ["x <= x;1", "x <= 1;x"]),
        _law("p10", "x", [], ["x <= x;conv(x);x", "1;x;1 = 1;conv(x);1"]),
        # the second equation is the converse-symmetric companion of the
        # first: 1;(y;z & x) = 1;(conv(y);x & z)
        _law(
            "cyc1",
            "x y z",
            [],
            [
                "(y;z & x);1 = (x;conv(z) & y);1",
                "1;(y;z & x) = 1;(conv(y);x & z)",
            ],
        ),
        _law(
            "i1",
            "x y z",
            [],
            ["x;1 & y;z = (x;1 & y);z", "y;z & 1;x = y;(z & 1;x)"],
        ),
        _law(
            "icyc",
            "u v x y",
            [],
            [
                "id & u;v & x;y <= "
                "id & (u & conv(v));(conv(u);x & v;conv(y));(y & conv(x))"
            ],
        ),
        _law(
            "exch",
            "u v x y",
            [],
            [
                "id & (u & x);(v & y) = id & (u & conv(v));(conv(x) & y)",
                "id & x;y = id & (x & conv(y));(conv(x) & y)",
            ],
        ),
    ]


def _functional_laws():
    x, y, f = Var("x"), Var("y"), Var("f")
    return [
        _law("func-leq", "x y", ["x <= y"] + functional(y), functional(x)),
        _law("func-comp", "x y", functional(x, y), functional(Comp(x, y))),
        _law("func-perm", "x y", permutational(x, y), permutational(Comp(x, y), Conv(x))),
        # partial identities e are drawn from the tested assignments only; in
        # the tree model that means sampled elements
        _law(
            "grp",
            "e x y",
            [
                "e <= id",
                "x;conv(x) = e",
                "conv(x);x = e",
                "y;conv(y) = e",
                "conv(y);y = e",
            ],
            [
                "conv(e) = e",
                "e;e = e",
                "e;x = x",
                "x;e = x",
                "(x;y);conv(x;y) = e",
                "conv(x;y);(x;y) = e",
            ],
        ),
        _law(
            "f-dist",
            "f x y",
            functional(f),
            [
                "f;(x & y) = f;x & f;y",
                "(x & y);conv(f) = x;conv(f) & y;conv(f)",
            ],
        ),
        _law("prop1a", "", [QP_DOMAIN] + functional(A), ["conv(a);a = id"]),
        _law(
            "prop2a",
            "x y",
            total(x, y) + ["x;conv(x) & y;conv(y) <= id"],
            ["x;conv(x) & y;conv(y) = id"],
        ),
        _law("f1", "f x", functional(f), ["f & (f & x);1 <= x"]),
        _law(
            "q1",
            "x",
            ["x <= conv(a);b"] + functional(A, B),
            ["x = conv(a);(id & a;x;conv(b));b"],
        ),
    ]


_PAIR = thompson.pairing(Var("u"), Var("v"), Var("x"), Var("y"))
_PAIR_CONCL = _eq(_PAIR)
_PAIR_LEQ = _eq(_PAIR, "<=")


def _pairing_laws():
    return [
        # the right side below the left
        _law("half-pr", "u v x y", functional(A, B), [_eq(_PAIR[::-1], "<=")]),
        _law("pair-i", "u v x y c d", PAIR_HYPS, [_PAIR_LEQ]),
        _law(
            "pair-ii",
            "u v x y c d",
            PAIR_HYPS + functional(A, B),
            [_PAIR_CONCL],
        ),
        _law("pair2-i", "u v x y c d", PAIR2_HYPS + [J_HYP], [_PAIR_LEQ]),
        _law(
            "pair2-ii",
            "u v x y c d",
            PAIR2_HYPS + [J_HYP] + functional(A, B),
            [_PAIR_CONCL],
        ),
        _law("pair2-iii", "u v x y c d", PAIR2_HYPS + Q_HYPS, [_PAIR_CONCL]),
        _law("pr", "u v x y", Q_HYPS, [_PAIR_CONCL]),
    ]


def _fork_laws():
    x, y, u, v = Var("x"), Var("y"), Var("u"), Var("v")
    hyps = Q_HYPS + U_HYPS
    return [
        _law("F1", "x y", hyps, [_eq(thompson.fork_f1(x, y))], part="I"),
        _law("F2", "u v x y", hyps, [_eq(thompson.fork_f2(u, v, x, y))], part="I"),
        _law("F3", "", hyps, [_eq(thompson.fork_f3(), "<=")], part="I"),
    ]


def _product_formulas():
    j = _law("J", "u v x y", [J_HYP], [_PAIR_LEQ], theorem=False, part="I")
    l = _law(
        "L",
        "u v w x y z",
        [],
        [
            "u;v & w;x & y;z <= "
            "u;(conv(u);w & v;conv(x) & "
            "(conv(u);y & v;conv(z));(conv(y);w & z;conv(x)));x"
        ],
        theorem=False,
        part="I",
    )
    m = _law(
        "M",
        "u v w p q r s",
        [],
        [
            "u & (v & w;p);(q & r;s) <= "
            "w;((conv(w);u & p;q);conv(s) & p;r & "
            "conv(w);(u;conv(s) & v;r));s"
        ],
        theorem=False,
        part="I",
    )
    # K, with the guarded element taken to be u;v & x;y
    k = _law(
        "K",
        "u v x y c d",
        functional(A, B)
        + ["a;1 = b;1"]
        + U_HYPS
        + ["conv(a);1;b = conv(a);b"]
        + PAIR2_HYPS
        + [J_HYP],
        [_PAIR_CONCL],
        part="I",
    )
    return [j, l, m, k]


def _parallel_laws():
    x, y, u, v = Var("x"), Var("y"), Var("u"), Var("v")
    gg1 = (comp(otimes(u, v), otimes(x, y)), "=", otimes(comp(u, x), comp(v, y)))
    gg2 = (comp(otimes(x, ID), otimes(ID, y)), "=", otimes(x, y))
    gg3 = (comp(otimes(ID, y), otimes(x, ID)), "=", otimes(x, y))
    fg1 = (comp(nabla(x, y), otimes(u, v)), "=", nabla(comp(x, u), comp(y, v)))
    fg2 = (comp(nabla(x, y), otimes(u, ID)), "=", nabla(comp(x, u), y))
    fg3 = (comp(nabla(x, y), otimes(ID, v)), "=", nabla(x, comp(y, v)))
    fh = (comp(nabla(u, v), fkc(x, y)), "=", Meet(comp(u, x), comp(v, y)))
    ux0k = (comp(GENERATORS["U"], otimes(x, ID), GENERATORS["K"]), "=", x)
    a_term = GENERATORS["A"]
    return [
        _law(
            "g-id",
            "",
            ["a;conv(a) & b;conv(b) = id"],
            [(otimes(ID, ID), "=", ID)],
        ),
        _law("gg-rule", "u v x y", Q_HYPS, [gg1, gg2, gg3]),
        _law("fg-rule", "u v x y", Q_HYPS, [fg1, fg2, fg3]),
        _law("fh-rule", "u v x y", Q_HYPS, [fh]),
        _law(
            "f-closed",
            "x y",
            functional(A, B) + U_HYPS + functional(x, y),
            functional(nabla(x, y), otimes(x, y)),
        ),
        _law(
            "g-closed",
            "x y",
            Q_HYPS + D_HYPS + U_HYPS + permutational(x, y),
            permutational(otimes(x, y)),
        ),
        _law("Ux0K", "x", Q_HYPS, [ux0k]),
        _law(
            "sub0",
            "",
            Q_HYPS,
            ["(conv(a) & conv(b));a = id", "(conv(a) & conv(b));b = id"],
        ),
        _law(
            "pok-i",
            "x y",
            Q_HYPS + D_HYPS + total(y),
            [(comp(otimes(x, y), A), "=", comp(A, x))],
        ),
        _law(
            "pok-ii",
            "x y",
            Q_HYPS + D_HYPS + total(x),
            [(comp(otimes(x, y), B), "=", comp(B, y))],
        ),
        _law(
            "pok-iii",
            "y",
            Q_HYPS + D_HYPS + total(y),
            [(comp(otimes(ID, y), A), "=", A)],
        ),
        _law(
            "pok-iv",
            "x",
            Q_HYPS + D_HYPS + total(x),
            [(comp(otimes(x, ID), B), "=", B)],
        ),
        _law(
            "pok-v",
            "x y",
            Q_HYPS + D_HYPS,
            [
                (comp(otimes(x, ID), A), "=", comp(A, x)),
                (comp(otimes(ID, y), B), "=", comp(B, y)),
            ],
        ),
        _law(
            "swap",
            "",
            Q_HYPS + D_HYPS,
            ["(a;conv(b) & b;conv(a));a = b", "(a;conv(b) & b;conv(a));b = a"],
        ),
        _law(
            "Rg",
            "x",
            Q_HYPS + D_HYPS + U_HYPS,
            [
                (
                    comp(a_term, otimes(ID, x), conv(a_term)),
                    "=",
                    otimes(ID, otimes(ID, x)),
                ),
                (
                    comp(conv(a_term), otimes(x, ID), a_term),
                    "=",
                    otimes(otimes(x, ID), ID),
                ),
            ],
        ),
    ]


def _presentation_laws():
    qu = [_eq(sides) for _, *sides in thompson.qu_relations()]
    out = [
        _law(name, "", qu, [_eq(sides)]) for name, *sides in thompson.ta_relations()
    ]
    m_rels = [_eq(sides) for _, *sides in thompson.m_relations()]
    x, y = Var("x"), Var("y")
    qu_x = qu + functional(x)
    out += [
        _law("m-invert", "", qu, m_rels[:3]),
        _law("m-commute", "x y", Q_HYPS, [_eq(thompson.m_commute(x, y))]),
        _law("m-split", "x", qu_x, [_eq(thompson.m_split(x))]),
        _law("m-reconstruct", "x", qu_x, [_eq(thompson.m_reconstruct(x))]),
        _law("m-rewrite", "", qu, m_rels[3:]),
    ]
    return out


_ALIASES = {
    "J-identity": "J",
    "1/2pr": "half-pr",
    "Pr": "pr",
    "qpr": "pr",
}


class UnknownLaw(UsageError, KeyError):
    """No catalog law has the given id or alias."""

    def __str__(self) -> str:
        return self.args[0]


@functools.cache
def _catalog() -> tuple[Law, ...]:
    return tuple(
        _axiom_laws()
        + _elementary_laws()
        + _functional_laws()
        + _pairing_laws()
        + _fork_laws()
        + _product_formulas()
        + _parallel_laws()
        + _presentation_laws()
    )


@functools.cache
def _by_id() -> dict[str, Law]:
    return {law.id: law for law in _catalog()}


def law_catalog() -> list[Law]:
    """The full fixed catalog, built on first use and kept for the process;
    each call returns a fresh list."""
    return list(_catalog())


def law_by_id(law_id: str) -> Law:
    law_id = _ALIASES.get(law_id, law_id)
    try:
        return _by_id()[law_id]
    except KeyError:
        raise UnknownLaw(f"no law named {law_id!r}") from None

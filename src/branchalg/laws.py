"""The fixed catalog of checkable laws.

Each law packages a universally quantified implication between term
(in)equations.  Laws marked theorem=True hold in every model of the axioms
(their failure indicates an implementation bug); the product-decomposition
formulas J, L, and M are included as checkable formulas precisely because
they fail in some finite algebras.

Laws that the source statements phrase with the two distinguished generators
use the generator symbols directly: in the tree-relation model these are the
fixed generators, while finite models quantify them like ordinary variables.
"""

from __future__ import annotations

import functools

from .model import Law
from .terms import ID, TOP, Conv, Meet, Term, comp, conv, parse_term
from .thompson import GENERATORS, defer0, defer1, fkc, nabla, otimes

_V = lambda s: parse_term(s)


def _rel(spec) -> tuple[Term, str, Term]:
    if isinstance(spec, tuple):
        return spec
    if "<=" in spec:
        lhs, rhs = spec.split("<=", 1)
        return (parse_term(lhs), "<=", parse_term(rhs))
    lhs, rhs = spec.split("=", 1)
    return (parse_term(lhs), "=", parse_term(rhs))


def _law(law_id, variables, hyps, concls, *, theorem=True, part="II", note=""):
    return Law(
        id=law_id,
        variables=tuple(variables.split()) if variables else (),
        hypotheses=tuple(_rel(h) for h in hyps),
        conclusions=tuple(_rel(c) for c in concls),
        signature="J",
        theorem=theorem,
        part=part,
        note=note,
    )


Q_HYPS = ["conv(a);a <= id", "conv(b);b <= id", "1 = conv(a);b"]
D_HYPS = ["1 = a;1", "1 = b;1"]
U_HYPS = ["a;conv(a) & b;conv(b) <= id"]
QU_HYPS = [
    "conv(a);a = id",
    "conv(b);b = id",
    "a;conv(a) & b;conv(b) = id",
    "conv(a);b = 1",
    "a;1 = 1",
    "b;1 = 1",
]


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
    return [
        _law(
            "func-leq",
            "x y",
            ["x <= y", "conv(y);y <= id"],
            ["conv(x);x <= id"],
        ),
        _law(
            "func-comp",
            "x y",
            ["conv(x);x <= id", "conv(y);y <= id"],
            ["conv(x;y);(x;y) <= id"],
        ),
        _law(
            "func-perm",
            "x y",
            [
                "conv(x);x = id",
                "x;conv(x) = id",
                "conv(y);y = id",
                "y;conv(y) = id",
            ],
            [
                "conv(x;y);(x;y) = id",
                "(x;y);conv(x;y) = id",
                "conv(conv(x));conv(x) = id",
                "conv(x);conv(conv(x)) = id",
            ],
        ),
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
            note="partial identities e are drawn from the tested assignments "
            "only; in the tree model that means sampled elements",
        ),
        _law(
            "f-dist",
            "f x y",
            ["conv(f);f <= id"],
            [
                "f;(x & y) = f;x & f;y",
                "(x & y);conv(f) = x;conv(f) & y;conv(f)",
            ],
        ),
        _law(
            "prop1a",
            "",
            ["1 = conv(a);b", "conv(a);a <= id"],
            ["conv(a);a = id"],
        ),
        _law(
            "prop2a",
            "x y",
            ["1 = x;1", "1 = y;1", "x;conv(x) & y;conv(y) <= id"],
            ["x;conv(x) & y;conv(y) = id"],
        ),
        _law("f1", "f x", ["conv(f);f <= id"], ["f & (f & x);1 <= x"]),
        _law(
            "q1",
            "x",
            ["x <= conv(a);b", "conv(a);a <= id", "conv(b);b <= id"],
            ["x = conv(a);(id & a;x;conv(b));b"],
        ),
    ]


_PAIR_CONCL = "u;v & x;y = (u;conv(a) & x;conv(b));(a;v & b;y)"
_PAIR_LEQ = "u;v & x;y <= (u;conv(a) & x;conv(b));(a;v & b;y)"


def _pairing_laws():
    return [
        _law(
            "half-pr",
            "u v x y",
            ["conv(a);a <= id", "conv(b);b <= id"],
            ["(u;conv(a) & x;conv(b));(a;v & b;y) <= u;v & x;y"],
        ),
        _law(
            "pair-i",
            "u v x y c d",
            [
                "u <= conv(c);d",
                "v;conv(y) <= conv(a);b",
                "conv(c);c <= id",
                "conv(d);d <= id",
            ],
            [_PAIR_LEQ],
        ),
        _law(
            "pair-ii",
            "u v x y c d",
            [
                "u <= conv(c);d",
                "v;conv(y) <= conv(a);b",
                "conv(c);c <= id",
                "conv(d);d <= id",
                "conv(a);a <= id",
                "conv(b);b <= id",
            ],
            [_PAIR_CONCL],
        ),
        _law(
            "pair2-i",
            "u v x y c d",
            [
                "conv(c);c <= id",
                "conv(d);d <= id",
                "u;v & x;y <= conv(c);d",
                "conv(u);x & v;conv(y) <= conv(a);b",
            ],
            [_PAIR_LEQ],
        ),
        _law(
            "pair2-ii",
            "u v x y c d",
            [
                "conv(c);c <= id",
                "conv(d);d <= id",
                "u;v & x;y <= conv(c);d",
                "conv(u);x & v;conv(y) <= conv(a);b",
                "conv(a);a <= id",
                "conv(b);b <= id",
            ],
            [_PAIR_CONCL],
        ),
        _law(
            "pair2-iii",
            "u v x y c d",
            [
                "conv(c);c <= id",
                "conv(d);d <= id",
                "u;v & x;y <= conv(c);d",
                "conv(a);a <= id",
                "conv(b);b <= id",
                "1 = conv(a);b",
            ],
            [_PAIR_CONCL],
        ),
        _law("pr", "u v x y", Q_HYPS, [_PAIR_CONCL], note="pairing from Q"),
    ]


def _fork_laws():
    x, y, u, v = _V("x"), _V("y"), _V("u"), _V("v")
    f1 = (
        nabla(x, y),
        "=",
        Meet(comp(x, nabla(ID, TOP)), comp(y, nabla(TOP, ID))),
    )
    f2 = (
        Meet(comp(u, Conv(v)), comp(x, Conv(y))),
        "=",
        comp(nabla(u, x), conv(nabla(v, y))),
    )
    f3 = (nabla(conv(nabla(ID, TOP)), conv(nabla(TOP, ID))), "<=", ID)
    return [
        _law("F1", "x y", Q_HYPS + U_HYPS, [f1], part="I"),
        _law("F2", "u v x y", Q_HYPS + U_HYPS, [f2], part="I"),
        _law("F3", "", Q_HYPS + U_HYPS, [f3], part="I"),
    ]


def _product_formulas():
    j = _law(
        "J",
        "u v x y",
        ["conv(u);x & v;conv(y) <= conv(a);b"],
        [_PAIR_LEQ],
        theorem=False,
        part="I",
        note="fails in some finite algebras",
    )
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
        note="fails in some finite algebras",
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
        note="fails in some finite algebras",
    )
    k = _law(
        "K",
        "u v x y c d",
        [
            "conv(a);a <= id",
            "conv(b);b <= id",
            "a;1 = b;1",
            "a;conv(a) & b;conv(b) <= id",
            "conv(a);1;b = conv(a);b",
            "conv(c);c <= id",
            "conv(d);d <= id",
            "u;v & x;y <= conv(c);d",
            "conv(u);x & v;conv(y) <= conv(a);b",
        ],
        [_PAIR_CONCL],
        part="I",
        note="with the guarded element taken to be u;v & x;y",
    )
    return [j, l, m, k]


def _parallel_laws():
    x, y, u, v = _V("x"), _V("y"), _V("u"), _V("v")
    gg1 = (comp(otimes(u, v), otimes(x, y)), "=", otimes(comp(u, x), comp(v, y)))
    gg2 = (comp(otimes(x, ID), otimes(ID, y)), "=", otimes(x, y))
    gg3 = (comp(otimes(ID, y), otimes(x, ID)), "=", otimes(x, y))
    fg1 = (comp(nabla(x, y), otimes(u, v)), "=", nabla(comp(x, u), comp(y, v)))
    fg2 = (comp(nabla(x, y), otimes(u, ID)), "=", nabla(comp(x, u), y))
    fg3 = (comp(nabla(x, y), otimes(ID, v)), "=", nabla(x, comp(y, v)))
    fh = (comp(nabla(u, v), fkc(x, y)), "=", Meet(comp(u, x), comp(v, y)))
    ux0k = (comp(GENERATORS["U"], otimes(x, ID), GENERATORS["K"]), "=", x)
    perm_hyps = [
        "conv(x);x = id",
        "x;conv(x) = id",
        "conv(y);y = id",
        "y;conv(y) = id",
    ]
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
            Q_HYPS[:2] + U_HYPS + ["conv(x);x <= id", "conv(y);y <= id"],
            [
                (comp(conv(nabla(x, y)), nabla(x, y)), "<=", ID),
                (comp(conv(otimes(x, y)), otimes(x, y)), "<=", ID),
            ],
        ),
        _law(
            "g-closed",
            "x y",
            Q_HYPS + D_HYPS + U_HYPS + perm_hyps,
            [
                (comp(conv(otimes(x, y)), otimes(x, y)), "=", ID),
                (comp(otimes(x, y), conv(otimes(x, y))), "=", ID),
            ],
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
            Q_HYPS + D_HYPS + ["1 = y;1"],
            [(comp(otimes(x, y), _V("a")), "=", comp(_V("a"), x))],
        ),
        _law(
            "pok-ii",
            "x y",
            Q_HYPS + D_HYPS + ["1 = x;1"],
            [(comp(otimes(x, y), _V("b")), "=", comp(_V("b"), y))],
        ),
        _law(
            "pok-iii",
            "y",
            Q_HYPS + D_HYPS + ["1 = y;1"],
            [(comp(otimes(ID, y), _V("a")), "=", _V("a"))],
        ),
        _law(
            "pok-iv",
            "x",
            Q_HYPS + D_HYPS + ["1 = x;1"],
            [(comp(otimes(x, ID), _V("b")), "=", _V("b"))],
        ),
        _law(
            "pok-v",
            "x y",
            Q_HYPS + D_HYPS,
            [
                (comp(otimes(x, ID), _V("a")), "=", comp(_V("a"), x)),
                (comp(otimes(ID, y), _V("b")), "=", comp(_V("b"), y)),
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
    from .thompson import _ta_relations

    out = [
        _law(f"ta{i}", "", QU_HYPS, [(lhs, "=", rhs)], part="II")
        for i, (name, lhs, rhs) in enumerate(_ta_relations(), start=1)
    ]
    g = GENERATORS
    p, r = g["P"], g["R"]
    out.append(
        _law(
            "m-invert",
            "",
            QU_HYPS,
            [
                (comp(p, p), "=", ID),
                (comp(p, r, p, r, p, r), "=", ID),
                (comp(r, p, r, p, r, p), "=", ID),
            ],
        )
    )
    x, y = _V("x"), _V("y")
    out.append(
        _law(
            "m-commute",
            "x y",
            Q_HYPS,
            [(comp(defer0(x), defer1(y)), "=", comp(defer1(y), defer0(x)))],
        )
    )
    out.append(
        _law(
            "m-split",
            "x",
            QU_HYPS + ["conv(x);x <= id"],
            [(comp(x, g["U"]), "=", comp(g["U"], defer0(x), defer1(x)))],
        )
    )
    out.append(
        _law(
            "m-reconstruct",
            "x",
            QU_HYPS + ["conv(x);x <= id"],
            [
                (
                    x,
                    "=",
                    comp(
                        g["U"],
                        defer0(x),
                        defer1(x),
                        defer0(g["K"]),
                        defer1(g["L"]),
                    ),
                )
            ],
        )
    )
    out.append(
        _law(
            "m-rewrite",
            "",
            QU_HYPS,
            [
                (comp(g["U"], g["K"]), "=", ID),
                (comp(g["U"], g["L"]), "=", ID),
                (comp(g["P0"], g["K"], g["K"]), "=", comp(g["K"], g["L"])),
                (comp(g["P0"], g["K"], g["L"]), "=", comp(g["K"], g["K"])),
                (comp(g["P0"], g["L"]), "=", g["L"]),
                (comp(g["R0"], g["K"], g["K"], g["K"]), "=", comp(g["K"], g["K"])),
                (
                    comp(g["R0"], g["K"], g["K"], g["L"]),
                    "=",
                    comp(g["K"], g["L"], g["K"]),
                ),
                (
                    comp(g["R0"], g["K"], g["L"]),
                    "=",
                    comp(g["K"], g["L"], g["L"]),
                ),
                (comp(g["R0"], g["L"]), "=", g["L"]),
            ],
        )
    )
    return out


_ALIASES = {
    "J-identity": "J",
    "1/2pr": "half-pr",
    "Pr": "pr",
    "qpr": "pr",
}


def law_catalog() -> list[Law]:
    """The full fixed catalog."""
    return (
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
def product_formula(name: str) -> Law:
    """Law J, L, M or K, built once per process (law_by_id rebuilds the
    whole catalog on every call)."""
    for law in _product_formulas():
        if law.id == name:
            return law
    raise ValueError(f"unknown formula {name!r}")


def law_by_id(law_id: str) -> Law:
    law_id = _ALIASES.get(law_id, law_id)
    for law in law_catalog():
        if law.id == law_id:
            return law
    raise KeyError(f"no law named {law_id!r}")

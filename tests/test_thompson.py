import dataclasses
import itertools
import random

import numpy as np
import pytest

from branchalg import branchrel, laws, model, terms, thompson
from branchalg.terms import Conv, Meet, comp, conv, meet
from branchalg.thompson import (
    DERIVED,
    GENERATORS,
    SuiteReport,
    defer0,
    defer1,
    fkc,
    fork_f1,
    fork_f2,
    m_commute,
    m_reconstruct,
    m_split,
    nabla,
    otimes,
    pairing,
    run_suite,
)

from oracles import mapsto, parse_tree_expr, substituted_sides

A, B = terms.A, terms.B


def _ms(src: str, dst: str) -> terms.Term:
    return mapsto(parse_tree_expr(src), parse_tree_expr(dst))


# the generators in tree-pair notation
TREE_PAIR_FORMS: dict[str, tuple[str, str]] = {
    "K": ("01", "0"),
    "L": ("01", "1"),
    "U": ("0", "00"),
    "P": ("01", "10"),
    "P0": ("(01)2", "(10)2"),
    "A": ("0(12)", "(01)2"),
    "R0": ("(0(12))3", "((01)2)3"),
    "B": ("3(0(12))", "3((01)2)"),
    "C": ("0(12)", "1(20)"),
    "pi0": ("0(12)", "1(02)"),
}

# deferred generators expand; their tree-pair forms are checked semantically
_STRUCTURAL_TREE_CHECK = ("K", "L", "U", "P", "A", "C", "pi0")

BLEAK_QUICK: dict[str, tuple[str, str]] = {
    "u": ("(01)(2(34))", "(10)(4(23))"),
    "v": ("(01)(23)", "(03)(12)"),
    "t0001": ("(01)2", "(10)2"),
    "t011011": ("(01)(23)", "(03)(12)"),
    "t100": ("(01)2", "(21)0"),
}

BLEAK_QUICK_TERMS: dict[str, terms.Term] = {
    name: _ms(src, dst) for name, (src, dst) in BLEAK_QUICK.items()
}


def verify_generator_forms() -> list[str]:
    """Structural comparison of closed forms against tree-pair notation.

    Returns the list of names whose forms disagree (empty on a correct
    build); the deferred generators are excluded here because their closed
    forms are the compact parallel-product expressions.
    """
    bad = []
    for name in _STRUCTURAL_TREE_CHECK:
        src, dst = TREE_PAIR_FORMS[name]
        if _ms(src, dst) != GENERATORS[name]:
            bad.append(name)
    return bad


def bleak_quick_checks(m) -> SuiteReport:
    """The compact generating sets are permutational."""
    out = [
        (f"{name} permutational", _all_hold(m, model.permutational(t)))
        for name, t in BLEAK_QUICK_TERMS.items()
    ]
    return SuiteReport("bleak-quick", out)


@pytest.fixture(scope="module")
def m():
    return branchrel.model_handle()


def _all_hold(m, relations):
    """Whether every closed relation holds in m."""
    return all(model.relation_holds(m, r, {}) for r in relations)


def _rel(m, t):
    return model.eval_term(m, t, {})


def test_generator_forms_agree():
    assert verify_generator_forms() == []


def test_deferred_constructors_are_the_compact_forms():
    assert defer0(GENERATORS["P"]) == GENERATORS["P0"]
    assert defer1(GENERATORS["A"]) == GENERATORS["B"]
    assert defer0(GENERATORS["A"]) == GENERATORS["R0"]
    # the left-deferred form reads a;x;conv(a) & b;conv(b)
    assert defer0(GENERATORS["P"]) == Meet(
        comp(A, GENERATORS["P"], Conv(A)), comp(B, Conv(B))
    )


def test_defer0_of_identity_evaluates_to_identity(m):
    assert m.equal(_rel(m, defer0(terms.ID)), m.ident)
    assert m.equal(_rel(m, otimes(terms.ID, terms.ID)), m.ident)


def test_nabla_of_id_top_evaluates_as_stated(m):
    got = _rel(m, nabla(terms.ID, terms.TOP))
    want = _rel(m, Meet(Conv(A), comp(terms.TOP, Conv(B))))
    assert m.equal(got, want)


def test_fh_rule_on_samples(m):
    pool = [terms.ID, A, B, comp(A, B), GENERATORS["U"], GENERATORS["P"]]
    for u in pool[:4]:
        for v in pool[:4]:
            lhs = _rel(m, comp(nabla(u, v), fkc(A, B)))
            rhs = _rel(m, Meet(comp(u, A), comp(v, B)))
            assert m.equal(lhs, rhs)


def test_expanded_tree_pair_forms():
    ca, cb = Conv(A), Conv(B)
    p0 = mapsto(parse_tree_expr("(01)2"), parse_tree_expr("(10)2"))
    assert p0 == meet(comp(A, A, cb, ca), comp(A, B, ca, ca), comp(B, cb))
    r0 = mapsto(parse_tree_expr("(0(12))3"), parse_tree_expr("((01)2)3"))
    assert r0 == meet(
        comp(A, A, ca, ca, ca),
        comp(A, B, A, cb, ca, ca),
        comp(A, B, B, cb, ca),
        comp(B, cb),
    )
    b_expanded = mapsto(parse_tree_expr("3(0(12))"), parse_tree_expr("3((01)2)"))
    assert b_expanded == meet(
        comp(A, ca),
        comp(B, A, ca, ca, cb),
        comp(B, B, A, cb, ca, cb),
        comp(B, B, B, cb, cb),
    )


def test_compact_and_expanded_forms_agree_in_the_model(m):
    cases = [
        (GENERATORS["B"], ("3(0(12))", "3((01)2)")),
        (GENERATORS["B"], ("0(1(23))", "0((12)3)")),
        (GENERATORS["P0"], ("(01)2", "(10)2")),
        (GENERATORS["R0"], ("(0(12))3", "((01)2)3")),
    ]
    for compact, (src, dst) in cases:
        expanded = mapsto(parse_tree_expr(src), parse_tree_expr(dst))
        assert m.equal(_rel(m, compact), _rel(m, expanded)), (src, dst)


def test_derived_elements_shape():
    assert DERIVED["X1"] == GENERATORS["B"]
    assert DERIVED["C1"] == GENERATORS["C"]
    assert DERIVED["X2"] == comp(GENERATORS["A"], GENERATORS["B"], conv(GENERATORS["A"]))
    assert DERIVED["C2"] == comp(GENERATORS["B"], GENERATORS["C"], conv(GENERATORS["A"]))


@pytest.mark.parametrize("suite_id", ["qu", "perms", "F", "T", "same"])
def test_fast_suites_pass(suite_id, suite_runs):
    report = run_suite(suite_id)
    suite_runs["reports"][suite_id] = report
    assert report.passed, report.failed_names


def test_v_suite_passes(suite_runs):
    report = run_suite("V")
    suite_runs["reports"]["V"] = report
    assert report.passed, report.failed_names
    assert len(report.results) == 14


def test_m_suite_passes(suite_runs):
    report = run_suite("M")
    suite_runs["reports"]["M"] = report
    assert report.passed, report.failed_names
    names = [n for n, _ in report.results]
    assert "P;P=id" in names and "R0;L=L" in names
    assert any(n.startswith("split[") for n in names)
    assert any(n.startswith("reconstruct[") for n in names)
    assert any(n.startswith("commute[") for n in names)


# relations per suite at seed 0, as perfbench/expected.json records them
SUITE_RELATIONS = {
    "qu": 6,
    "perms": 11,
    "F": 2,
    "T": 6,
    "V": 14,
    "M": 687,
    "same": 2,
    "fork": 345,
    "pairing": 200,
}


@pytest.mark.parametrize("suite_id", thompson.SUITE_IDS)
def test_suite_relation_counts(suite_id):
    report = run_suite(suite_id, seed=0)
    assert len(report.results) == SUITE_RELATIONS[suite_id]
    assert report.passed, report.failed_names


def test_fork_and_pairing_suites(suite_runs):
    for sid in ("fork", "pairing"):
        report = run_suite(sid, seed=0)
        suite_runs["reports"][sid] = report
        assert report.passed, report.failed_names


# --- the QU theorem on other quasiprojection pairs ---------------------------

# closed terms g, each a bijection of the tree; conjugating the standard pair
# by one keeps qu1-qu6
CONJUGATORS = {
    "A": GENERATORS["A"],
    "B": GENERATORS["B"],
    "C": GENERATORS["C"],
    "pi0": GENERATORS["pi0"],
    "P": GENERATORS["P"],
    "A;C": comp(GENERATORS["A"], GENERATORS["C"]),
    "pi0;B;C": comp(GENERATORS["pi0"], GENERATORS["B"], GENERATORS["C"]),
}


def _failing(m, relations):
    """The names of the closed suite relations that fail on m."""
    return [name for name, ok in thompson._each_holds(m, relations) if not ok]


def test_suite_relations_hold_on_conjugated_pairs():
    # the theorem: any pair satisfying qu1-qu6 yields images of F, T, V and
    # M, so every closed suite relation holds on the generators the pair
    # builds, for (g;a, g;b) and (a;g, b;g) alike.  g ranges over the
    # radius-2 ball of V, the words of length at most 2 in A, B, C, pi0 and
    # their converses, and over the named conjugators, one g per value
    m = branchrel.model_handle()
    relations = thompson.qu_relations() + thompson.ta_relations() + thompson.m_relations()
    steps = [GENERATORS[k] for k in ("A", "B", "C", "pi0")]
    steps += [conv(g) for g in steps]
    ball = [terms.ID] + steps + [comp(x, y) for x in steps for y in steps]

    def value(g):
        return branchrel._nf(model.eval_term(m, g, {})).constraints

    conjugators = {}
    for g in ball:
        conjugators.setdefault(value(g), g)
    assert len(conjugators) == 1 + 7 + 36  # pi0 is its own converse
    for g in CONJUGATORS.values():
        conjugators.setdefault(value(g), g)
    assert len(conjugators) == 45  # of the named seven only pi0;B;C, of length 3, is new
    checked = 0
    for g in conjugators.values():
        gv = model.eval_term(m, g, {})
        for side, (a, b) in {
            "g;a, g;b": (m.comp(gv, m.gen_a), m.comp(gv, m.gen_b)),
            "a;g, b;g": (m.comp(m.gen_a, gv), m.comp(m.gen_b, gv)),
        }.items():
            pair = dataclasses.replace(m, gen_a=a, gen_b=b)
            assert _failing(pair, relations) == [], (terms.format_term(g), side)
            checked += len(relations)
    assert checked == 2880


def test_the_weaker_guard_admits_a_pair_that_breaks_qu3():
    # functional a and b, Domain and Unicity as an inclusion (Q_HYPS +
    # U_HYPS) hold on this pool pair, whose b is not total; qu3 and qu6 fail
    m = branchrel.model_handle()
    pool = {branchrel.format_relation(r): r for r in branchrel.paths_pool()}
    a, b = pool["{R.^=L.0}"], pool["{R.^=L.10; R.^=L.11}"]
    pair = dataclasses.replace(m, gen_a=a, gen_b=b)
    guard = [laws._rel(h) for h in laws.Q_HYPS + laws.U_HYPS]
    assert all(model.relation_holds(pair, h, {}) for h in guard)
    assert _failing(pair, thompson.qu_relations()) == ["qu3", "qu6"]
    assert _failing(m, thompson.qu_relations()) == []


def test_suite_report_line():
    report = run_suite("T")
    assert report.line() == "SUITE T pass relations=6 failed=[]"


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_key_error_inside_a_suite_is_not_an_unknown_suite(monkeypatch):
    def broken(m, seed):
        raise KeyError("missing inside the suite")

    monkeypatch.setitem(thompson._SUITES, "qu", broken)
    with pytest.raises(KeyError, match="missing inside the suite"):
        run_suite("qu")
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_perms_classification(m):
    u, cu = GENERATORS["U"], conv(GENERATORS["U"])
    assert _all_hold(m, model.functional(u))
    assert not _all_hold(m, model.permutational(u))
    assert _all_hold(m, model.functional(cu))
    assert not _all_hold(m, model.permutational(cu))
    assert _all_hold(m, model.permutational(GENERATORS["P"]))
    assert _all_hold(m, model.functional(GENERATORS["K"]))


def test_rg_property_on_named_elements(m):
    a_t = GENERATORS["A"]
    for x in (GENERATORS["A"], GENERATORS["B"], GENERATORS["P"],
              comp(GENERATORS["K"], conv(GENERATORS["K"]))):
        lhs = _rel(m, comp(a_t, otimes(terms.ID, x), conv(a_t)))
        rhs = _rel(m, otimes(terms.ID, otimes(terms.ID, x)))
        assert m.equal(lhs, rhs)


def test_gg_rule_on_samples(m):
    pool = [terms.ID, A, B, GENERATORS["P"], comp(A, B)]
    for u in pool[:3]:
        for v in pool[:3]:
            for x, y in ((A, B), (terms.ID, GENERATORS["P"])):
                lhs = _rel(m, comp(otimes(u, v), otimes(x, y)))
                rhs = _rel(m, otimes(comp(u, x), comp(v, y)))
                assert m.equal(lhs, rhs)


def test_bleak_quick(m, suite_runs):
    report = bleak_quick_checks(m)
    suite_runs["reports"]["bleak-quick"] = report
    assert report.passed, report.failed_names
    assert mapsto(parse_tree_expr("(01)2"), parse_tree_expr("(21)0")) == (
        BLEAK_QUICK_TERMS["t100"]
    )
    assert mapsto(parse_tree_expr("(01)(23)"), parse_tree_expr("(03)(12)")) == (
        BLEAK_QUICK_TERMS["t011011"]
    )
    # two of the published generating sets share elements
    assert BLEAK_QUICK_TERMS["v"] == BLEAK_QUICK_TERMS["t011011"]


# --- quantified suite equations: grid and rows against substitution ---------


def _grid_sides(m, schema, variables, blocks):
    """Both sides of schema(*variables) at each assignment of blocks, in the
    order model.verdicts reads them."""
    names = variables.split()
    lhs, rhs = schema(*map(terms.Var, names))
    fl, fr = model._compile(lhs, m), model._compile(rhs, m)
    out = []
    for values, shape in blocks:
        env = dict(zip(names, values))
        sides = (np.broadcast_to(f(env), shape).ravel().tolist() for f in (fl, fr))
        out += zip(*sides)
    return out


# (suite, label, schema, variables, pool of (name, term)) of each grid
GRID_EQUATIONS = [
    ("M", "split", m_split, "x", thompson.sample_functionals),
    ("M", "reconstruct", m_reconstruct, "x", thompson.sample_functionals),
    ("M", "commute", m_commute, "x y", thompson.sample_functionals),
    ("fork", "F1", fork_f1, "x y", thompson._fork_pool),
]


@pytest.mark.parametrize("suite_id, label, schema, variables, pool", GRID_EQUATIONS)
def test_grid_matches_substitution_on_seeded_pairs(m, suite_id, label, schema, variables, pool):
    named = pool()
    k = len(variables.split())
    values = [v for _, v in thompson._values(m, named)]
    sides = _grid_sides(m, schema, variables, model._grids([values] * k))
    tuples = list(itertools.product(named, repeat=k))
    assert len(sides) == len(tuples)
    verdict = dict(run_suite(suite_id, seed=0).results)
    for i in random.Random(24).sample(range(len(tuples)), min(40, len(tuples))):
        names, ts = zip(*tuples[i])
        lhs, rhs = substituted_sides(m, schema, ts)
        assert m.equal(sides[i][0], lhs) and m.equal(sides[i][1], rhs), (label, names)
        assert verdict[f"{label}[{','.join(names)}]"] == m.equal(lhs, rhs)


def _fork_rows(seed):
    """The fork-pool indices of each draw of F2 and pairing at seed."""
    n = len(thompson._fork_pool())
    ((cols, _),) = model._draws(range(n), 4, model.Sample(200, seed))
    return list(zip(*cols))


@pytest.mark.parametrize(
    "suite_id, label, schema", [("fork", "F2", fork_f2), ("pairing", "Pr", pairing)]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_rows_match_substitution_on_seeded_draws(m, suite_id, label, schema, seed):
    # the same draw stream over pool indices, terms and their values
    pool = thompson._fork_pool()
    values = [v for _, v in thompson._values(m, pool)]
    sample = model.Sample(200, seed)
    sides = _grid_sides(m, schema, "u v x y", model._draws(values, 4, sample))
    rows = _fork_rows(seed)
    verdict = dict(run_suite(suite_id, seed=seed).results)
    for i in random.Random(seed).sample(range(len(rows)), 40):
        names, ts = zip(*(pool[j] for j in rows[i]))
        lhs, rhs = substituted_sides(m, schema, ts)
        assert m.equal(sides[i][0], lhs) and m.equal(sides[i][1], rhs), (label, i)
        assert verdict[f"{label}[{','.join(names)}]#{i}"] == m.equal(lhs, rhs)


def _at_names(pool, *names):
    """The values in m of the named entries of pool."""
    return lambda m: [dict(thompson._values(m, pool()))[n] for n in names]


def _at_draw(i):
    """The four values of draw i of the fork draws at seed 0."""
    return lambda m: [
        thompson._values(m, thompson._fork_pool())[j][1] for j in _fork_rows(0)[i]
    ]


# (suite, schema, variables, values at the rejected assignment, failing relation)
FORCED_FAILURES = [
    ("M", m_commute, "x y", _at_names(thompson.sample_functionals, "P", "ab"),
     "commute[P,ab]"),
    ("M", m_split, "x", _at_names(thompson.sample_functionals, "B"), "split[B]"),
    ("fork", fork_f1, "x y", _at_names(thompson._fork_pool, "a~", "P"), "F1[a~,P]"),
    ("fork", fork_f2, "u v x y", _at_draw(9), "F2[P,aa,b~,a~]#9"),
    ("pairing", pairing, "u v x y", _at_draw(33), "Pr[ba,U,a,a~]#33"),
]


@pytest.mark.parametrize("suite_id, schema, variables, at, name", FORCED_FAILURES)
def test_forced_failure_names_exactly_its_relation(
    monkeypatch, suite_id, schema, variables, at, name
):
    # equal rejects the two sides at one assignment, whose values no other
    # relation of the suite has; a mis-ordered grid or row index would name
    # another relation
    m = branchrel.model_handle()
    names = variables.split()
    env = dict(zip(names, at(m)))
    lhs, rhs = schema(*map(terms.Var, names))
    target = (model.eval_term(m, lhs, env), model.eval_term(m, rhs, env))
    real = branchrel.equal
    monkeypatch.setattr(branchrel, "equal", lambda x, y: (x, y) != target and real(x, y))
    assert run_suite(suite_id, seed=0).failed_names == [name]

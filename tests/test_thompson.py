import pytest

from branchalg import branchrel, model, terms, thompson
from branchalg.model import is_functional, is_permutational
from branchalg.terms import Conv, Meet, comp, conv, mapsto, meet, parse_tree_expr
from branchalg.thompson import (
    DERIVED,
    GENERATORS,
    SuiteReport,
    defer0,
    defer1,
    fkc,
    nabla,
    otimes,
    run_suite,
)

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
        (f"{name} permutational", is_permutational(m, _rel(m, t)))
        for name, t in BLEAK_QUICK_TERMS.items()
    ]
    return SuiteReport("bleak-quick", out)


@pytest.fixture(scope="module")
def m():
    return branchrel.model_handle()


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


def test_fork_and_pairing_suites(suite_runs):
    for sid in ("fork", "pairing"):
        report = run_suite(sid, seed=0)
        suite_runs["reports"][sid] = report
        assert report.passed, report.failed_names


def test_suite_report_line():
    report = run_suite("T")
    assert report.line() == "SUITE T pass relations=6 failed=[]"


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_key_error_inside_a_suite_is_not_an_unknown_suite(monkeypatch):
    def broken(ctx, seed):
        raise KeyError("missing inside the suite")

    monkeypatch.setitem(thompson._SUITES, "qu", broken)
    with pytest.raises(KeyError, match="missing inside the suite"):
        run_suite("qu")
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_perms_classification(m):
    u = _rel(m, GENERATORS["U"])
    assert is_functional(m, u) and not is_permutational(m, u)
    assert is_functional(m, _rel(m, conv(GENERATORS["U"])))
    assert not is_permutational(m, _rel(m, conv(GENERATORS["U"])))
    assert is_permutational(m, _rel(m, GENERATORS["P"]))
    assert is_functional(m, _rel(m, GENERATORS["K"]))


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

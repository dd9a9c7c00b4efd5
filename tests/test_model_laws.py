import dataclasses
import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from branchalg import branchrel, laws, model, terms, thompson
from branchalg.finra import SIGNATURES, check_jlm, make_proper_ra
from branchalg.model import Exhaustive, Sample, StrategyUnavailableError, check_law
from branchalg.terms import Comp, Conv, Meet, Var, parse_term


@pytest.fixture(scope="module")
def bmodel():
    return branchrel.model_handle()


@pytest.fixture(scope="module")
def fmodel(request):
    from branchalg.finra import enumerate_integral

    return enumerate_integral("1'abb~")[0].handle()


def test_eval_examples(bmodel, fmodel):
    x = Var("x")
    for m, e in ((bmodel, branchrel.GEN_B), (fmodel, 5)):
        assert m.equal(model.eval_term(m, Comp(terms.ID, x), {"x": e}), e)
        assert m.equal(model.eval_term(m, Meet(x, terms.ZERO), {"x": e}), m.zero)
    got = model.eval_term(bmodel, Comp(Conv(terms.A), terms.B), {})
    assert bmodel.equal(got, bmodel.top)


def test_eval_errors(bmodel):
    with pytest.raises(model.UnboundVariableError):
        model.eval_term(bmodel, Var("nope"), {})
    for t, message in [
        (terms.Join(terms.A, terms.B), "model branchrel has no join"),
        (terms.Compl(terms.A), "model branchrel has no complement"),
    ]:
        with pytest.raises(model.UnsupportedOperatorError, match=f"^{message}$"):
            model.eval_term(bmodel, t, {})


def test_fixed_generators_are_constants(bmodel, fmodel):
    # the tree fixes a and b, so an environment entry cannot rebind them; a
    # finite model reads them from the environment like variables
    got = model.eval_term(bmodel, terms.A, {"a": branchrel.IDENT})
    assert got is branchrel.GEN_A
    assert model.eval_term(fmodel, terms.A, {"a": 5}) == 5


def _unfolded(m, t):
    """t's value in a model that fixes the generators, one handle call per
    occurrence of each operator node: the evaluation with nothing folded."""
    if isinstance(t, (terms.GenA, terms.GenB)):
        return m.gen_a if isinstance(t, terms.GenA) else m.gen_b
    op = getattr(m, model._FIELDS[type(t)])
    if isinstance(t, (Comp, Meet, terms.Join)):
        return op(_unfolded(m, t.left), _unfolded(m, t.right))
    if isinstance(t, (Conv, terms.Compl)):
        return op(_unfolded(m, t.child))
    return op


def test_a_shared_ground_subterm_is_folded_once(bmodel):
    shared = Comp(terms.A, Conv(terms.B))
    t = shared
    for _ in range(6):
        t = Meet(Comp(shared, t), shared)
    occurrences = sum(u is shared for u in terms.subterms(t))
    assert occurrences == 13
    calls = Counter()

    def counting(x, y):
        calls[x, y] += 1
        return bmodel.comp(x, y)

    m = dataclasses.replace(bmodel, comp=counting)
    assert model.eval_term(m, t, {}) == _unfolded(bmodel, t)
    conv_b = bmodel.conv(branchrel.GEN_B)
    assert calls[branchrel.GEN_A, conv_b] == 1
    # with a variable, the shared ground part is still folded once per compile
    x = Var("x")
    f = model._compile(Meet(Comp(shared, x), Comp(x, shared)), m)
    calls.clear()
    for y in branchrel.paths_pool()[:5]:
        want = bmodel.meet(bmodel.comp(bmodel.comp(branchrel.GEN_A, conv_b), y),
                           bmodel.comp(y, bmodel.comp(branchrel.GEN_A, conv_b)))
        assert f({"x": y}) == want
    assert calls[branchrel.GEN_A, conv_b] == 0


@pytest.mark.parametrize(
    "relations", [thompson.qu_relations, thompson.ta_relations, thompson.m_relations]
)
def test_folded_evaluation_matches_unfolded(bmodel, relations):
    for name, lhs, rhs in relations():
        for t in (lhs, rhs):
            assert model.eval_term(bmodel, t, {}) == _unfolded(bmodel, t), name


def test_choice_indices_draw_as_random_choice():
    for seed, n in itertools.product(
        range(200), (1, 2, 3, 5, 8, 16, 31, 64, 105, 127, 128, 129, 1000)
    ):
        want, got = random.Random(seed), random.Random(seed)
        draws = [want.choice(range(n)) for _ in range(300)]
        assert model.choice_indices(got, n, 300) == draws, (seed, n)
        assert got.random() == want.random(), (seed, n)


def test_generators_quantified_only_without_fixed_model_generators(bmodel, fmodel):
    law = laws.law_by_id("swap")
    assert law.quantified_variables(bmodel) == ()
    assert law.quantified_variables(fmodel) == ("a", "b")


def test_p2_exhaustive_on_four_atom_algebra(fmodel):
    report = check_law(fmodel, laws.law_by_id("p2"), Exhaustive())
    assert report.passed and report.tested == 256
    assert report.line() == "LAW p2 pass tested=256"


def test_ta6_on_fixed_generator_environment(bmodel):
    report = check_law(bmodel, laws.law_by_id("ta6"), Sample(n=5, seed=0))
    assert report.passed and report.tested == 1  # no free variables


def test_exhaustive_cap_errors(fmodel):
    with pytest.raises(StrategyUnavailableError):
        check_law(fmodel, laws.law_by_id("gg-rule"), Exhaustive())  # 6 variables


def test_exhaustive_unavailable_on_branchrel(bmodel):
    with pytest.raises(StrategyUnavailableError):
        check_law(bmodel, laws.law_by_id("p2"), Exhaustive())


def test_vacuous_hypotheses_count_as_passes(fmodel):
    law = model.Law(
        id="never",
        variables=("x",),
        hypotheses=((parse_term("x"), "=", parse_term("-(x)")),),
        conclusions=((parse_term("x"), "=", parse_term("0")),),
    )
    report = check_law(fmodel, law, Exhaustive())
    assert report.passed and report.tested == 16


def test_counterexample_refails(fmodel):
    law = model.Law(
        id="bogus",
        variables=("x", "y"),
        hypotheses=(),
        conclusions=((parse_term("x"), "<=", parse_term("y")),),
    )
    report = check_law(fmodel, law, Exhaustive())
    assert not report.passed and report.counterexample is not None
    env = {k: fmodel.sample_pool()[0] for k in ("x", "y")}
    # reconstruct the failing assignment from the formatted counterexample
    inv = {fmodel.format_element(e): e for e in fmodel.elements()}
    env = {k: inv[v] for k, v in report.counterexample.items()}
    assert model.rerun_counterexample(fmodel, law, env)
    assert "counterexample:" in report.line()


def test_catalog_size_and_mandatory_ids():
    catalog = laws.law_catalog()
    assert len(catalog) >= 60
    ids = [l.id for l in catalog]
    assert len(ids) == len(set(ids))
    for required in (
        "p1 p2 p3 p4 p5 p6 p7 p8 p9 p10 cyc1 i1 icyc exch grp f-dist prop1a "
        "prop2a f1 q1 half-pr pair-i pair-ii pair2-i pair2-ii pair2-iii pr "
        "F1 F2 F3 J L M K g-id gg-rule fg-rule fh-rule f-closed g-closed "
        "Ux0K sub0 pok-i pok-ii pok-iii pok-iv pok-v swap Rg m-invert "
        "m-commute m-split m-reconstruct m-rewrite"
    ).split():
        laws.law_by_id(required)
    for i in range(1, 15):
        laws.law_by_id(f"ta{i}")


def test_catalog_aliases():
    assert laws.law_by_id("J-identity").id == "J"
    assert laws.law_by_id("1/2pr").id == "half-pr"
    with pytest.raises(KeyError):
        laws.law_by_id("not-a-law")


def test_catalog_is_built_once():
    for law in laws.law_catalog():
        assert laws.law_by_id(law.id) is laws.law_by_id(law.id)
    assert laws.law_by_id("Pr") is laws.law_by_id("pr")


def test_catalog_list_is_a_copy():
    before = laws.law_catalog()
    mine = laws.law_catalog()
    assert mine is not before
    mine.clear()
    assert laws.law_catalog() == before
    assert laws.law_by_id(before[0].id) is before[0]


def _law_line(law):
    def rel(r):
        lhs, op, rhs = r
        return f"{terms.format_term(lhs)} {op} {terms.format_term(rhs)}"

    return "|".join(
        [
            law.id,
            " ".join(law.variables),
            " ; ".join(map(rel, law.hypotheses)),
            " ; ".join(map(rel, law.conclusions)),
            str(law.theorem),
            law.part,
        ]
    )


def test_catalog_is_pinned():
    # every law's variables, hypotheses, conclusions, theorem flag and part,
    # one line a law in catalog order; a weakened or dropped guard changes it
    catalog = laws.law_catalog()
    assert len(catalog) == 86
    text = "\n".join(map(_law_line, catalog))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5014869c69e79b57fa7dac7f936b65b931d64950666ee5b930cf83c26de02a00"
    )


def test_closed_guards_equal_their_former_spelling(bmodel, re2):
    # f-closed and g-closed once spelled "n functional" and "n permutational"
    # out with comp and conv, which push the converse through n; the guard
    # builders write Comp(Conv(n), n).  Each former side equals the new one
    # at every (x, y, a, b) of Re(2) and every (x, y) of the tree pool
    x, y = Var("x"), Var("y")
    nab, ot = thompson.nabla(x, y), thompson.otimes(x, y)
    pairs = [
        (terms.comp(terms.conv(nab), nab), Comp(Conv(nab), nab)),
        (terms.comp(terms.conv(ot), ot), Comp(Conv(ot), ot)),
        (terms.comp(ot, terms.conv(ot)), Comp(ot, Conv(ot))),
    ]
    fin = re2.handle()
    for m, names, values, count in (
        (fin, ["x", "y", "a", "b"], fin.elements(), 65536),
        (bmodel, ["x", "y"], branchrel.paths_pool(), 11025),
    ):
        for old, new in pairs:
            assert old != new
            blocks = model._grids([values] * len(names))
            oks = model.verdicts(m, (old, "=", new), names, blocks)
            assert len(oks) == count and all(oks)


def test_guard_verdicts_agree_with_relation_holds(bmodel, re2):
    # the block path AtomStructure.functional_table takes: model.verdicts of
    # a guard over the pool or element array, against model.relation_holds
    # at each value
    e = Var("e")
    fin = re2.handle()
    pool, elements = branchrel.paths_pool(), fin.elements()
    assert (len(pool), len(elements)) == (105, 16)
    for m, values in ((bmodel, pool), (fin, elements)):
        outcomes = []
        for guard in (model.functional(e), model.permutational(e)):
            columns = []
            for r in guard:
                oks = model.verdicts(m, r, ["e"], model._grids([values]))
                assert oks == [model.relation_holds(m, r, {"e": v}) for v in values]
                columns.append(oks)
            outcomes.append([all(c) for c in zip(*columns)])
        seen = Counter(zip(*outcomes))
        # both answers occur, so neither side can be a constant
        assert seen[True, True] and seen[True, False] and seen[False, False]


def test_presentation_guard_is_vacuous_on_finite_rows(enumerated, re2):
    # a count computed here, not a published one: of the (a, b) element
    # pairs of the 198 table structures, Re(2) and Re(3), qu1-qu6 hold at
    # a = b = 1' on the one-atom 1' alone, so a presentation law checked on
    # a finite structure passes at most one assignment of its guard
    qu = [(lhs, "=", rhs) for _, lhs, rhs in thompson.qu_relations()]
    structures = [s for sig in SIGNATURES for s in enumerated(sig)]
    assert len(structures) == 198
    hits = []
    for s in structures + [re2, make_proper_ra(3)]:
        m = s.handle()
        els = m.elements()
        ok = np.ones(len(els) ** 2, dtype=bool)
        for r in qu:
            ok &= model.verdicts(m, r, ["a", "b"], model._grids([els, els]))
        for i in np.flatnonzero(ok):
            a, b = els[i // len(els)], els[i % len(els)]
            hits.append((s.label, s.format_element(a), s.format_element(b)))
    assert hits == [("1'#0", "1'", "1'")]


def test_swap_law_shape():
    law = laws.law_by_id("swap")
    assert len(law.hypotheses) == 5  # the three projection equations plus domain
    assert len(law.conclusions) == 2


def test_f2_law_exists_with_fork_shape():
    law = laws.law_by_id("F2")
    assert law.signature == "J"
    assert len(law.conclusions) == 1


def test_j_signature_rejects_union():
    # a law's signature is read off its terms: the catalog is all J, and a
    # union or a complement anywhere makes a law RA
    assert {law.signature for law in laws.law_catalog()} == {"J"}
    x = parse_term("x")
    for hyp, concl in [(x, parse_term("x + x")), (parse_term("-(x)"), x)]:
        law = model.Law(
            id="ra",
            variables=("x",),
            hypotheses=((hyp, "<=", x),),
            conclusions=((x, "=", concl),),
        )
        assert law.signature == "RA"
    with pytest.raises(ValueError):
        model.Law(
            id="undeclared",
            variables=(),
            hypotheses=(),
            conclusions=((parse_term("x"), "=", parse_term("x")),),
        )


def test_product_formula_counterexample_refails(enumerated):
    # every atom- and element-level violation found by the profile machinery
    # is a genuine counterexample to the formula law
    found = 0
    for s in enumerated("1'abb~") + enumerated("1'abc"):
        m = s.handle()
        for mode in ("atoms", "elements"):
            rec = check_jlm(s, mode=mode)
            for f in rec.failed:
                env = rec.failures[f]
                assert model.rerun_counterexample(m, laws.law_by_id(f), env)
                found += 1
    assert found > 0


# laws that fail in most algebras, so that counterexamples get compared too
FALSE_LAWS = [
    model.Law(
        id="false-leq",
        variables=("x", "y"),
        hypotheses=((parse_term("x;y"), "<=", parse_term("y;x")),),
        conclusions=((parse_term("x"), "<=", parse_term("conv(y)")),),
    ),
    model.Law(
        id="false-eq",
        variables=("x",),
        hypotheses=(),
        conclusions=(
            (parse_term("x"), "<=", parse_term("1")),
            (parse_term("a;x"), "=", parse_term("x;b")),
        ),
    ),
    model.Law(  # first fails after more than one block of assignments
        id="false-late",
        variables=tuple("pqrstuv"),
        hypotheses=(),
        conclusions=(
            (parse_term("p & q & r & s & t & u & v"), "<=", parse_term("0")),
        ),
    ),
]


def _reference_report(m, law, assignments):
    """check_law's report, one assignment at a time: the first assignment, in
    order, that re-fails the law is the counterexample."""
    names = law.quantified_variables(m)
    tested = 0
    for tested, values in enumerate(assignments, 1):
        env = dict(zip(names, values))
        if model.rerun_counterexample(m, law, env):
            ce = {k: m.format_element(v) for k, v in env.items()}
            return model.LawReport(law.id, tested, False, ce)
    return model.LawReport(law.id, tested, True)


def _reference_sample(m, law, n, seed):
    names = law.quantified_variables(m)
    if not names:
        return _reference_report(m, law, [()])
    pool = list(m.sample_pool())
    rng = random.Random(seed)
    draws = (tuple(rng.choice(pool) for _ in names) for _ in range(n))
    return _reference_report(m, law, draws)


def test_block_evaluation_matches_scalar_exhaustively(enumerated):
    m = enumerated("1'a")[1].handle()
    elems = list(m.elements())
    failures = 0
    for law in laws.law_catalog() + FALSE_LAWS:
        names = law.quantified_variables(m)
        want = _reference_report(m, law, itertools.product(elems, repeat=len(names)))
        assert check_law(m, law, Exhaustive()) == want, law.id
        failures += not want.passed
    assert failures >= len(FALSE_LAWS)


def test_block_evaluation_matches_scalar_on_samples(enumerated):
    m = enumerated("1'abb~")[9].handle()
    failures = 0
    for law in laws.law_catalog() + FALSE_LAWS:
        want = _reference_sample(m, law, 200, 0)
        assert check_law(m, law, Sample(200, 0)) == want, law.id
        failures += not want.passed
    assert failures >= len(FALSE_LAWS)


@pytest.mark.parametrize("seed", [0, 1])
def test_block_evaluation_matches_scalar_on_the_tree(bmodel, seed):
    failures = 0
    for law in laws.law_catalog() + FALSE_LAWS:
        want = _reference_sample(bmodel, law, 200, seed)
        assert check_law(bmodel, law, Sample(200, seed)) == want, law.id
        failures += not want.passed
    assert failures >= 1


def test_tree_operations_work_on_object_arrays(bmodel):
    pool = branchrel.paths_pool()
    xs = np.array(pool[:12] + [branchrel.ZERO], dtype=object)
    ys = np.array(pool[5:17] + [branchrel.TOP], dtype=object)
    x, y = pool[3], pool[8]
    m = bmodel
    for op in (m.meet, m.comp, m.equal, m.leq):
        got = op(xs, ys)
        assert got.shape == xs.shape
        assert list(got) == [op(a, b) for a, b in zip(xs, ys)]
        assert list(op(xs, y)) == [op(a, y) for a in xs]
        assert list(op(x, ys)) == [op(x, b) for b in ys]
    assert list(m.conv(xs)) == [m.conv(a) for a in xs]
    for single in (m.meet(x, y), m.comp(x, y), m.conv(x)):
        assert type(single) is branchrel.BranchRelation
    for single in (m.equal(x, y), m.leq(x, y), m.equal(x, x)):
        assert type(single) is bool


def test_law_report_line_format(fmodel):
    rep = check_law(fmodel, laws.law_by_id("p1"), Exhaustive())
    assert rep.line().startswith("LAW p1 pass tested=4096")


def _product_walk(m, law, pools):
    """search's (tested, counterexample), one itertools.product assignment
    at a time through rerun_counterexample."""
    names = law.quantified_variables(m)
    tested = 0
    for tested, values in enumerate(itertools.product(*pools), 1):
        env = dict(zip(names, values))
        if model.rerun_counterexample(m, law, env):
            return tested, env
    return tested, None


def _grid_search(monkeypatch, m, law, atom_vars):
    """search's answer and the shapes of the grids it evaluated."""
    shapes = []
    grids = model._grids

    def recording(pools):
        for values, shape in grids(pools):
            shapes.append(shape)
            yield values, shape

    monkeypatch.setattr(model, "_grids", recording)
    return model.search(m, law, Exhaustive(), atom_vars), shapes


def _pools(m, law, atom_vars):
    names = law.quantified_variables(m)
    return [m.atoms() if v in atom_vars else m.elements() for v in names]


# A law that first fails at p = r = s = 1' and q = 1, past the first outer
# step; it holds wherever either hypothesis fails
LATE_GRID_LAW = model.Law(
    id="late-grid",
    variables=("p", "q", "r", "s"),
    hypotheses=(
        (parse_term("1"), "<=", parse_term("p + q")),
        (parse_term("s"), "<=", parse_term("r")),
    ),
    conclusions=((parse_term("p & q & r & s"), "<=", parse_term("0")),),
)


@pytest.mark.parametrize(
    "index, law_id, atom_vars, tested",
    [
        (0, "M", "u v w p q r s", 16384),  # passes: all 4**7 assignments
        (15, "M", "u v w p q r s", 10240),  # fails in the third outer step
        (26, "J", "u v x y", 48675),  # a, b over elements: two outer variables
        (0, "late-grid", "", 1 * 16**3 + 15 * 16**2 + 1 * 16 + 1 + 1),
    ],
)
def test_grid_search_matches_the_product_walk(
    enumerated, monkeypatch, index, law_id, atom_vars, tested
):
    m = enumerated("1'abb~")[index].handle()
    law = LATE_GRID_LAW if law_id == "late-grid" else laws.law_by_id(law_id)
    atom_vars = frozenset(atom_vars.split())
    got, shapes = _grid_search(monkeypatch, m, law, atom_vars)
    assert got == _product_walk(m, law, _pools(m, law, atom_vars))
    assert got[0] == tested
    assert len(shapes) > 1  # some variable is walked outside the grid
    assert all(math.prod(shape) <= model.BLOCK for shape in shapes)


def test_grids_cover_the_product_in_order():
    pools = [[0, 1, 2], list(range(40)), [5, 6], list(range(64)), [7]]
    seen, shapes = [], []
    for values, shape in model._grids(pools):
        shapes.append(shape)
        grid = np.broadcast_arrays(*[np.asarray(v) for v in values])
        seen += zip(*(g.ravel().tolist() for g in grid))
    assert seen == list(itertools.product(*pools))
    assert shapes == [(2, 64, 1)] * 120
    assert [shape for _, shape in model._grids([])] == [()]
    wide = [[1], list(range(model.BLOCK + 1))]  # too wide for a grid
    assert [shape for _, shape in model._grids(wide)] == [()] * (model.BLOCK + 1)

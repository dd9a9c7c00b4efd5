import pytest

from branchalg import cli, laws, model
from branchalg.finra import check_jlm
from branchalg.finra.atoms import from_cycles
from branchalg.finra.jlm import FORMULAS, profile_structures
from branchalg.terms import parse_term

import oracles

EXPECTED = {
    "1'abb~": (5, 0, 2, 0, 0, 0, 2, 28),
    "1'abc": (5, 2, 3, 0, 0, 0, 6, 49),
    "1'aa~bb~": (9, 0, 4, 1, 1, 0, 8, 60),
}

EXPECTED_ELEMENTS = {
    "1'abb~": (5, 0, 2, 0, 0, 0, 2, 28),
    "1'abc": (5, 2, 3, 0, 1, 0, 6, 48),
}


@pytest.mark.parametrize("signature", ["1'abb~", "1'abc"])
def test_atom_profiles_match_published_counts(enumerated, signature):
    assert profile_structures(enumerated(signature)) == EXPECTED[signature]


@pytest.mark.parametrize("signature", ["1'abb~", "1'abc"])
def test_element_profiles(enumerated, signature):
    got = profile_structures(enumerated(signature), mode="elements")
    assert got == EXPECTED_ELEMENTS[signature]


def test_four_atom_two_pair_profile(enumerated):
    assert profile_structures(enumerated("1'aa~bb~")) == EXPECTED["1'aa~bb~"]


def test_one_atom_algebra_has_no_failures():
    s = from_cycles(("1'",), (0,), {0}, [(0, 0, 0)], label="unit")
    rec = check_jlm(s)
    assert rec.failed == ()
    assert rec.line() == "JLM unit mode=atoms J=pass L=pass M=pass"


def test_element_mode_is_strictly_stronger(enumerated):
    """One structure over three symmetric atoms passes the formulas at atom
    resolution but fails the first one over full elements."""
    witnesses = []
    for s in enumerated("1'abc"):
        atom_rec = check_jlm(s, mode="atoms")
        if atom_rec.failed:
            continue
        elem_rec = check_jlm(s, mode="elements")
        if elem_rec.failed == ("J",):
            witnesses.append((s, elem_rec.failures["J"]))
    assert len(witnesses) == 1
    s, assignment = witnesses[0]
    # the reported assignment is a genuine element-level violation
    comp, conv = s.tables
    a, b, u, v, x, y = (assignment[k] for k in ("a", "b", "u", "v", "x", "y"))
    hyp = comp[conv[u], x] & comp[v, conv[y]]
    assert (hyp & comp[conv[a], b]) == hyp
    lhs = comp[u, v] & comp[x, y]
    rhs = comp[
        comp[u, conv[a]] & comp[x, conv[b]], comp[a, v] & comp[b, y]
    ]
    assert (lhs & rhs) != lhs
    # at least one variable is a proper join of atoms
    assert any(bin(val).count("1") > 1 for val in assignment.values())


def test_kernels_agree_with_reference_on_small_algebras(enumerated):
    # restrict the reference brute force to 2-atom algebras (4 elements)
    for s in enumerated("1'a"):
        comp, conv = s.tables
        failures = check_jlm(s, mode="elements").failures
        for formula in ("J", "L", "M"):
            ref = oracles.reference_violation(comp, conv, formula)
            got = failures[formula]
            assert (ref is None) == (got is None), (s.label, formula)


def _sample_law(s, law_id, samples, seed):
    law = laws.law_by_id(law_id)
    return model.check_law(s.handle(), law, model.Sample(samples, seed))


def _refails(s, law_id, report):
    env = {k: s.parse_element(v) for k, v in report.counterexample.items()}
    return model.rerun_counterexample(s.handle(), laws.law_by_id(law_id), env)


def test_sample_mode_sound_and_deterministic(enumerated):
    # seeded sampling of J, L and M is check-law's Sample strategy
    clean = [s for s in enumerated("1'abb~") if not check_jlm(s).failed][0]
    for f in FORMULAS:  # sampling never refutes a passing structure
        assert _sample_law(clean, f, 5_000, 1).passed

    # a structure and seed on which sampling finds a failure (of J)
    failing = next(s for s in enumerated("1'abc") if s.label == "1'abc#17")
    reports = [_sample_law(failing, f, 2_000, 0) for f in FORMULAS]
    assert not all(r.passed for r in reports)  # so the re-fail check runs
    for f, r1 in zip(FORMULAS, reports):
        assert r1 == _sample_law(failing, f, 2_000, 0)
        if r1.counterexample is not None:
            assert _refails(failing, f, r1)


def test_element_mode_finds_every_sampled_failure(enumerated):
    # model.reducible's proof: a violating element assignment has one with
    # the reducible variables on atoms, which element mode walks in full
    sampled = 0
    for s in enumerated("1'abc"):
        failures = check_jlm(s, mode="elements").failures
        for f in FORMULAS:
            report = _sample_law(s, f, 2_000, 0)
            if not report.passed:
                sampled += 1
                assert failures[f] is not None, (s.label, f)
                assert _refails(s, f, report)
    assert sampled > 0


@pytest.mark.parametrize("index", [0, 18])  # #18 fails all three at atoms
def test_element_mode_past_four_atoms(enumerated, index):
    # element mode is stronger than atom mode for J and is atom mode for L, M
    s = enumerated("1'aa~bb~")[index]
    atoms = check_jlm(s, mode="atoms").failures
    elements = check_jlm(s, mode="elements").failures
    assert atoms["J"] is None or elements["J"] is not None
    assert (elements["L"], elements["M"]) == (atoms["L"], atoms["M"])


def test_proper_algebra_has_no_formula_failures(re2):
    for mode in ("atoms", "elements"):
        assert check_jlm(re2, mode=mode).failed == ()


def _check_k(s, samples, seed):
    return _sample_law(s, "K", samples, seed)


def test_check_k_on_proper_algebra(re2):
    report = _check_k(re2, samples=100_000, seed=0)
    assert report.passed
    assert report.line() == "LAW K pass tested=100000"


def test_check_k_seed_reproducibility(enumerated):
    s = enumerated("1'abb~")[3]
    r1 = _check_k(s, samples=5_000, seed=42)
    r2 = _check_k(s, samples=5_000, seed=42)
    assert r1.line() == r2.line()


def test_check_k_vacuous_on_unit_algebra():
    s = from_cycles(("1'",), (0,), {0}, [(0, 0, 0)], label="unit")
    assert _check_k(s, samples=2_000, seed=0).passed


def test_check_k_passes_on_enumerated_representables(enumerated):
    # structures with no formula failures: the guarded implication must hold
    clean = [s for s in enumerated("1'abb~") if not check_jlm(s).failed]
    for s in clean[:3]:
        assert _check_k(s, samples=20_000, seed=0).passed


def test_reducible_on_the_formula_laws():
    get = laws.law_by_id
    assert model.reducible(get("J")) == {"u", "v", "x", "y"}
    assert model.reducible(get("L")) == set(get("L").variables)
    assert model.reducible(get("M")) == set(get("M").variables)
    assert model.reducible(get("K")) == {"u", "v", "x", "y"}


def _rel(spec):
    op = "<=" if "<=" in spec else "="
    lhs, rhs = spec.split(op, 1)
    return (parse_term(lhs), op, parse_term(rhs))


def _law(hyps, concls):
    return model.Law(
        id="synthetic",
        variables=("x", "y"),
        hypotheses=tuple(_rel(h) for h in hyps),
        conclusions=tuple(_rel(c) for c in concls),
    )


def test_reducible_admits_a_left_only_variable():
    # x is once on the conclusion's left and only on the hypothesis' left;
    # y sits on the hypothesis' right
    assert model.reducible(_law(["conv(x);x <= y"], ["x;y <= 1"])) == {"x"}


def test_reducible_admits_a_variable_once_on_each_side_of_an_equation():
    assert model.reducible(_law(["conv(x);x <= y"], ["x;y = conv(x)"])) == {"x"}
    assert model.reducible(_law([], ["conv(x;y) = conv(y);conv(x)"])) == {"x", "y"}


@pytest.mark.parametrize(
    "hyps, concls, signature",
    [
        (["conv(x);x <= y"], ["x;y <= 1 + 0"], "RA"),  # not a J-signature law
        (["conv(x);x <= y"], ["x;y = 1"], "J"),  # not on an equation's right
        (["conv(x);x <= y"], ["x;x;y <= 1"], "J"),  # twice on the left
        (["conv(x);x <= y"], ["x;y <= 1", "y <= x"], "J"),  # missing on a left
        (["conv(x);x = y"], ["x;y <= 1"], "J"),  # hypothesis is an equation
        (["conv(x);x <= y", "y <= x"], ["x;y <= 1"], "J"),  # on a hypothesis' right
        (["conv(x);x <= y"], ["x;y = x;x"], "J"),  # twice on an equation's right
    ],
)
def test_reducible_rejects(hyps, concls, signature):
    law = _law(hyps, concls)
    assert law.signature == signature  # read off the terms
    assert "x" not in model.reducible(law)


def _assert_reduction_agrees(structures, formulas):
    for s in structures:
        m = s.handle()
        failures = check_jlm(s, mode="elements").failures
        for f in formulas:
            law = laws.law_by_id(f)
            full = model.search(m, law, model.Exhaustive())[1]
            reduced = failures[f]
            assert (full is None) == (reduced is None), (s.label, f)
            if reduced is not None:
                assert model.rerun_counterexample(m, law, reduced)


def test_reduced_and_full_quantification_agree(enumerated):
    # every structure with at most three atoms
    sigs = ("1'", "1'a", "1'aa~", "1'ab")
    _assert_reduction_agrees([s for sig in sigs for s in enumerated(sig)], FORMULAS)


@pytest.mark.slow
def test_reduced_and_full_quantification_agree_on_four_atoms(enumerated):
    # J and L only: full quantification of M takes 16**7 assignments each
    structures = enumerated("1'abb~") + enumerated("1'abc")
    _assert_reduction_agrees(structures, ("J", "L"))


@pytest.mark.slow
def test_stretch_row_profile_is_pinned(capsys):
    # Computed by this program, not published: the paper gives no profile
    # for 1'abcc~.  On five atoms M's search walks u and v outside a grid
    # of 5**5 atom assignments, in 25 blocks, on each of the 1,316 classes.
    assert cli.main(["check-jlm", "1'abcc~", "--stretch"]) == 0
    assert capsys.readouterr().out == (
        "total=1316\nfail:JLM=369 fail:JL=76 fail:JM=127 fail:LM=16 "
        "fail:J=37 fail:L=0 fail:M=132 fail:none=559\n"
    )

import itertools
import random
from collections import Counter

import pytest
from test_finra import _orbit_subsets

from branchalg.finra import (
    SIGNATURES,
    NotTabular,
    build_stage_rep,
    enumerate_integral,
    from_cycles,
    functional_elements,
    hat,
    is_tabular,
    make_proper_ra,
    tabular_witness,
)
from branchalg.finra.represent import (
    SUBALGEBRA_CAP,
    PartialRep,
    _assert_common_post,
    extend_comp,
    extend_join,
    generated_subalgebra,
)

import oracles


def _strict_pairs(s):
    return [
        (v, w)
        for w in range(1, s.n_elements)
        for v in range(s.n_elements)
        if v != w and s.leq(v, w)
    ]


def test_re2_is_tabular_with_witnesses(re2):
    assert is_tabular(re2)
    comp, conv = re2.tables
    for v, w in _strict_pairs(re2):
        p, q = tabular_witness(re2, v, w)
        t = comp[conv[p], q]
        assert t != 0 and (t & w) == t and (t & v) == 0


def test_exactly_one_two_atom_structure_is_tabular():
    structures = enumerate_integral("1'a")
    flags = sorted(is_tabular(s) for s in structures)
    assert flags == [False, True]
    bad = [s for s in structures if not is_tabular(s)][0]
    with pytest.raises(NotTabular):
        tabular_witness(bad, bad.ident, bad.top)


def _random_structures(count):
    """Seeded random cycle-closed structures on one to five atoms, with a
    random involutive converse, a random nonempty set of identity atoms and
    the cycle orbits of random triples."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        conv = list(range(n))
        unpaired = rng.sample(range(n), n)
        while len(unpaired) >= 2 and rng.random() < 0.5:
            i, j = unpaired.pop(), unpaired.pop()
            conv[i], conv[j] = j, i
        identity = rng.sample(range(n), rng.randint(1, n))
        cycles = [
            tuple(rng.randrange(n) for _ in range(3))
            for _ in range(rng.randint(0, n * n))
        ]
        names = [f"x{i}" for i in range(n)]
        out.append(from_cycles(names, conv, identity, cycles, label=f"random#{seed}"))
    return out


def test_is_tabular_matches_the_pairwise_definition(enumerated):
    # the seven table rows, every orbit subset of four signatures (the
    # non-relation-algebras included), Re(1)-Re(3) and random structures
    structures = [s for sig in SIGNATURES for s in enumerated(sig)]
    for sig in ("1'a", "1'aa~", "1'ab", "1'abb~"):
        structures += _orbit_subsets(sig)[0]
    structures += [make_proper_ra(n) for n in (1, 2, 3)]
    structures += _random_structures(300)
    verdicts = Counter()
    for s in structures:
        assert functional_elements(s) == oracles.functional_brute(s), s.label
        verdicts[is_tabular(s)] += 1
        assert is_tabular(s) == oracles.is_tabular_pairwise(s), s.label
    assert verdicts == {True: 90, False: 561}


def test_witness_requires_strict_pair(re2):
    with pytest.raises(ValueError):
        tabular_witness(re2, 3, 3)
    with pytest.raises(ValueError):
        tabular_witness(re2, re2.top, re2.ident)


def _diag_rep(re2):
    # two copies of a point relation: nonzero, functional, common domain
    comp, conv = re2.tables
    e = None
    for x in functional_elements(re2):
        if x and re2.leq(x, re2.ident) and bin(x).count("1") == 1:
            e = x
            break
    return PartialRep(re2, (e, e))


def test_partial_rep_validation(re2):
    with pytest.raises(ValueError):
        PartialRep(re2, (0, re2.ident))
    with pytest.raises(ValueError):
        PartialRep(re2, (re2.top,))  # not functional
    rep = _diag_rep(re2)
    assert len(rep) == 2


def test_hat_basics(re2):
    rep = _diag_rep(re2)
    diag = {(i, i) for i in range(len(rep))}
    assert diag <= hat(rep, re2.ident)
    assert hat(rep, 0) == frozenset()
    comp, conv = re2.tables
    for x in range(re2.n_elements):
        assert hat(rep, int(conv[x])) == frozenset(
            (j, i) for i, j in hat(rep, x)
        )


def test_lemma_properties_on_re2_and_enumerated(re2, enumerated):
    rep = _diag_rep(re2)
    assert oracles.lemma_properties_hold(rep)
    for s in enumerated("1'abb~")[:3]:
        fns = [x for x in functional_elements(s) if x]
        comp, _ = s.tables
        f0 = fns[0]
        dom = int(comp[f0, s.top])
        seq = [f for f in fns if int(comp[f, s.top]) == dom][:3]
        rep = PartialRep(s, tuple(seq))
        assert oracles.lemma_properties_hold(rep)


def test_extend_join_postconditions(re2):
    comp, conv = re2.tables
    rep = _diag_rep(re2)
    x, y = rep.f[0], int(comp[rep.f[0], re2.top])
    targets = hat(rep, x | y)
    assert targets
    i, j = sorted(targets)[0]
    g = extend_join(re2, rep, i, j, x, y)
    assert (i, j) in hat(g, x) | hat(g, y)
    # when the first branch has a nonzero seed it is the one selected
    if comp[rep.f[i], x] & rep.f[j]:
        assert (i, j) in hat(g, x)
    for z in range(re2.n_elements):
        assert hat(rep, z) <= hat(g, z)
        for k in range(len(rep)):
            for l in range(len(rep)):
                if (comp[rep.f[k], z] & rep.f[l]) == 0:
                    assert (comp[g.f[k], z] & g.f[l]) == 0
    # degenerate join: x joined with itself restricts the domain only
    g2 = extend_join(re2, rep, i, j, x, x)
    assert (i, j) in hat(g2, x)


def test_extend_join_precondition(re2):
    rep = _diag_rep(re2)
    with pytest.raises(ValueError):
        extend_join(re2, rep, 0, 1, 0, 0)


def test_extend_comp_on_re2(re2):
    comp, conv = re2.tables
    rep = _diag_rep(re2)
    x = y = re2.top
    assert (0, 1) in hat(rep, int(comp[x, y]))
    g = extend_comp(re2, rep, 0, 1, x, y)
    m = len(g) - 1
    assert m == len(rep)
    assert (0, m) in hat(g, x) and (m, 1) in hat(g, y)
    assert (0, 1) in {
        (i, j) for i, k in hat(g, x) for k2, j in hat(g, y) if k == k2
    }
    for z in range(re2.n_elements):
        assert hat(rep, z) <= hat(g, z)


def _post_error(check, s, old, new):
    try:
        check(s, old, new)
    except AssertionError as exc:
        return str(exc)
    return None


def test_extension_check_rejects_bad_extensions(re2):
    # p00 -> p01 drops every pair from the map of p00; p01 -> p00 keeps the
    # maps but makes p01 ; p11 & p00 nonzero where p01 ; p11 & p01 was zero
    p00, p01 = PartialRep(re2, (1,)), PartialRep(re2, (2,))
    with pytest.raises(AssertionError, match="not monotone"):
        _assert_common_post(re2, p00, p01)
    with pytest.raises(AssertionError, match="zero product"):
        _assert_common_post(re2, p01, p00)
    _assert_common_post(re2, p00, p00)


def test_extension_check_matches_the_loop(re2):
    # every pair of nonzero functional sequences of length one or two with a
    # common domain, the new one at least as long as the old
    comp, _ = re2.tables
    fns = [x for x in functional_elements(re2) if x]
    reps = [
        PartialRep(re2, seq)
        for n in (1, 2)
        for seq in itertools.product(fns, repeat=n)
        if len({int(comp[f, re2.top]) for f in seq}) == 1
    ]
    verdicts = Counter()
    for old in reps:
        for new in reps:
            if len(new) >= len(old):
                want = _post_error(oracles.common_post_loop, re2, old, new)
                assert _post_error(_assert_common_post, re2, old, new) == want
                verdicts[want] += 1
    assert verdicts == {
        None: 262,
        "extension is not monotone": 300,
        "extension created a zero product": 270,
    }


def test_generated_subalgebra_cap(re2):
    xs = generated_subalgebra(re2, [3, 7])
    assert len(xs) <= SUBALGEBRA_CAP
    assert 0 in xs and re2.ident in xs and re2.top in xs


def test_build_stage_rep_separates(re2):
    report = build_stage_rep(re2, 0, 0b0010, stages=50, seed=0)
    assert len(report.stages) == 50
    assert report.all_conditions_hold
    assert report.separates
    # separation is achieved at stage 0 already
    assert report.stages[0].separated and report.stages[0].zero_kept


def test_build_stage_rep_many_pairs(re2):
    for v, w in _strict_pairs(re2)[:8]:
        report = build_stage_rep(re2, v, w, stages=12, seed=1)
        assert report.all_conditions_hold and report.separates, (v, w)


def test_build_stage_rep_composition_witnesses(re2):
    report = build_stage_rep(re2, 0, 0b0010, stages=60, seed=0)
    assert any(st.step == "comp" and st.length > 2 for st in report.stages)


def test_build_stage_rep_errors(re2):
    with pytest.raises(ValueError):
        build_stage_rep(re2, 0, 1, stages=0)
    with pytest.raises(ValueError):
        build_stage_rep(re2, 1, 1, stages=5)
    bad = [s for s in enumerate_integral("1'a") if not is_tabular(s)][0]
    with pytest.raises(NotTabular):
        build_stage_rep(bad, bad.ident, bad.top, stages=5)

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchalg import laws, model
from branchalg.terms import parse_term
from branchalg.finra import (
    AtomStructureError,
    TABLE_TOTALS,
    UnsupportedSignatureError,
    enumerate_integral,
    format_structure,
    from_cycles,
    kernels,
    make_proper_ra,
    normalize_signature,
    parse_structure,
    verify_axioms,
)
from branchalg.finra.atoms import AXIOM_LAWS, AtomStructure, peirce_orbit
from branchalg.finra.enumeration import (
    SIGNATURES,
    STRETCH_SIGNATURES,
    atom_symmetries,
    canonical_key,
    diversity_orbits,
    forced_triples,
    orbit_permutations,
    signature_spec,
)

import oracles


def test_one_atom_algebra():
    s = from_cycles(("1'",), (0,), {0}, [(0, 0, 0)])
    assert verify_axioms(s)
    assert s.n_elements == 2 and s.ident == 1 and s.top == 1


def test_cycle_closure_enforced():
    # a triple set that is not closed under the cycle transforms is not a
    # legal structure
    with pytest.raises(AtomStructureError):
        AtomStructure(("1'", "a", "b"), (0, 1, 2), frozenset({0}),
                      frozenset({(0, 0, 0), (1, 2, 1)}))


def _orbit_subsets(signature):
    """Every structure on the signature whose triples are the forced ones
    plus a union of diversity orbits, associative or not, with the triple
    sets the associativity filter keeps."""
    _, names, conv = signature_spec(signature)
    forced = forced_triples(conv)
    orbits = diversity_orbits(conv)
    survivors = {
        oracles.mask_triples(forced, orbits, mask)
        for mask in kernels.associative_candidates(
            len(conv), forced, orbits, np.arange(1 << len(orbits))
        ).tolist()
    }
    structures = []
    for k in range(len(orbits) + 1):
        for combo in itertools.combinations(orbits, k):
            triples = frozenset(forced.union(*combo))
            structures.append(AtomStructure(names, conv, frozenset({0}), triples))
    return structures, survivors


def test_assoc_filter_agrees_with_full_axiom_check():
    # every orbit subset over the signatures with at most four atoms and
    # symmetric or paired diversity atoms: the fast associativity filter
    # must keep exactly the candidates that satisfy the full axiom battery
    checked = rejected = 0
    for sig in ("1'a", "1'aa~", "1'ab", "1'abb~"):
        structures, survivors = _orbit_subsets(sig)
        for s in structures:
            ok = verify_axioms(s)
            assert ok == (s.triples in survivors), (sig, sorted(s.triples))
            rejected += not ok
        checked += len(structures)
    assert (checked, rejected) == (150, 91)


def _filter_inputs(conv):
    """The filter's arguments for the signature with converse conv: atom
    count, forced triples, diversity orbits and the canonical masks."""
    forced = forced_triples(conv)
    orbits = diversity_orbits(conv)
    sigmas = orbit_permutations(orbits, atom_symmetries(conv))
    return len(conv), forced, orbits, kernels.canonical_masks(sigmas, 0, 1 << len(orbits))


def _check_against_oracle(n, forced, orbits, masks, survivors):
    # every survivor, and a seeded sample of 2,000 rejects, checked by
    # composing atom sets
    def associative(mask):
        return oracles.associative_brute(n, oracles.mask_triples(forced, orbits, mask))

    for mask in survivors.tolist():
        assert associative(mask), mask
    rejected = np.setdiff1d(masks, survivors).tolist()
    for mask in random.Random(0).sample(rejected, 2000):
        assert not associative(mask), mask


@pytest.mark.parametrize("signature, kept", [("1'abcc~", 1316), ("1'abcd", 3013)])
def test_assoc_filter_agrees_with_plain_python_oracle(signature, kept):
    # every canonical mask the filter keeps on the two five-atom rows, and a
    # seeded sample of those it rejects
    n, forced, orbits, masks = _filter_inputs(signature_spec(signature, stretch=True)[2])
    survivors = kernels.associative_candidates(n, forced, orbits, masks)
    assert len(survivors) == kept
    _check_against_oracle(n, forced, orbits, masks, survivors)


def test_assoc_filter_joins_chunks(monkeypatch):
    # each five-atom row is one range of kernels.CHUNK masks; in ranges of
    # 1,000 (66 on 1'abcc~, 1,049 on 1'abcd) enumeration must return the
    # same structures in the same order
    rows = ("1'abcc~", "1'abcd")
    for signature in rows:
        orbits = diversity_orbits(signature_spec(signature, stretch=True)[2])
        assert 1 << len(orbits) <= kernels.CHUNK
    whole = {sig: enumerate_integral(sig, stretch=True) for sig in rows}
    monkeypatch.setattr(kernels, "CHUNK", 1000)
    for signature in rows:
        ranged = enumerate_integral(signature, stretch=True)
        assert [(s.label, s.triples) for s in ranged] == [
            (s.label, s.triples) for s in whole[signature]
        ]


def test_assoc_filter_takes_an_empty_batch():
    _, _, conv = signature_spec("1'abcc~", stretch=True)
    forced, orbits = forced_triples(conv), diversity_orbits(conv)
    empty = np.zeros(0, dtype=np.int64)
    assert kernels.associative_candidates(len(conv), forced, orbits, empty).shape == (0,)


def test_assoc_filter_keeps_input_order():
    # dropping the failed masks as they fail must not reorder the rest
    n, forced, orbits, masks = _filter_inputs(signature_spec("1'abcc~", stretch=True)[2])
    survivors = kernels.associative_candidates(n, forced, orbits, masks)
    shuffled = np.random.default_rng(0).permutation(masks)
    expected = shuffled[np.isin(shuffled, survivors)]
    assert len(expected) == 1316
    assert np.array_equal(kernels.associative_candidates(n, forced, orbits, shuffled), expected)


def test_assoc_filter_packing_edges():
    # the filter packs 8 masks a byte: every batch length 0-17, and a batch
    # of 8m + 1 masks whose last mask, alone in its byte, survives, keep
    # exactly the whole batch's survivors among their masks
    n, forced, orbits, masks = _filter_inputs(signature_spec("1'abcc~", stretch=True)[2])
    survivors = kernels.associative_candidates(n, forced, orbits, masks)
    kept = np.isin(masks, survivors)
    last = next(i for i in range(8, len(masks), 8) if kept[i])
    for length in [*range(18), last + 1]:
        batch = masks[:length]
        expected = batch[kept[:length]]
        assert np.array_equal(kernels.associative_candidates(n, forced, orbits, batch), expected)


@pytest.mark.parametrize("conv, count", [((0, 1, 2, 3, 4), 20_000), ((0, 1, 3, 2, 5, 4), 5_000)])
def test_assoc_filter_agrees_with_oracle_on_arbitrary_masks(conv, count):
    # 1'abcd and 1'abb~cc~: seeded masks that are not orbit minima, so
    # neither canonicity nor the order of the masks helps the filter
    n, forced, orbits = len(conv), forced_triples(conv), diversity_orbits(conv)
    sigmas = orbit_permutations(orbits, atom_symmetries(conv))
    drawn = np.random.default_rng(0).integers(0, 1 << len(orbits), 3 * count)
    least = np.minimum.reduce([kernels.orbit_image(drawn, sigma) for sigma in sigmas])
    masks = drawn[least < drawn][:count]
    assert len(masks) == count
    survivors = kernels.associative_candidates(n, forced, orbits, masks)
    assert 0 < len(survivors) < count - 2000
    _check_against_oracle(n, forced, orbits, masks, survivors)


@pytest.mark.slow
def test_six_atom_filter_agrees_with_oracle_and_orbit_count():
    # 1'abb~cc~: 25 orbits, 8 symmetries, 4,395,264 canonical masks, fed to
    # the filter one range of kernels.CHUNK masks at a time.  Summing
    # |G|/|stabiliser| over the classes counts the associative masks among
    # all 2^25, which a filter run on every mask finds to be 312,508
    conv = (0, 1, 3, 2, 5, 4)
    n, forced, orbits = len(conv), forced_triples(conv), diversity_orbits(conv)
    sigmas = orbit_permutations(orbits, atom_symmetries(conv))
    end = 1 << len(orbits)
    ranges = [
        kernels.canonical_masks(sigmas, lo, min(lo + kernels.CHUNK, end))
        for lo in range(0, end, kernels.CHUNK)
    ]
    survivors = np.concatenate(
        [kernels.associative_candidates(n, forced, orbits, masks) for masks in ranges]
    )
    masks = np.concatenate(ranges)
    assert len(masks) == 4_395_264 and len(survivors) == 47_965
    bits = survivors[:, None] >> np.arange(len(orbits)) & 1
    stabiliser = sum(bits @ (1 << np.array(sigma)) == survivors for sigma in sigmas)
    assert (len(sigmas) // stabiliser).sum() == 312_508
    _check_against_oracle(n, forced, orbits, masks, survivors)


def test_axiom_laws_reduced_and_full_quantification_agree(enumerated):
    # every structure with at most three atoms, and every orbit subset of
    # 1'ab, the failing ones included
    structures = [s for sig in ("1'", "1'a", "1'aa~", "1'ab") for s in enumerated(sig)]
    structures += _orbit_subsets("1'ab")[0]
    failures = 0
    for s in structures:
        m = s.handle()
        for law_id in AXIOM_LAWS:
            law = laws.law_by_id(law_id)
            full = model.search(m, law, model.Exhaustive())[1]
            reduced = model.search(m, law, model.Exhaustive(), model.reducible(law))[1]
            assert (full is None) == (reduced is None), (s.label, law_id)
            if reduced is not None:
                assert model.rerun_counterexample(m, law, reduced)
                failures += 1
    assert failures > 0


def test_make_proper_ra():
    assert make_proper_ra(1).n_atoms == 1
    re2 = make_proper_ra(2)
    assert re2.n_atoms == 4
    assert verify_axioms(re2)
    with pytest.raises(ValueError):
        make_proper_ra(0)
    with pytest.raises(ValueError):
        make_proper_ra(5)


def test_tables_match_the_definition(enumerated):
    structures = [
        s
        for sig in ("1'", "1'a", "1'aa~", "1'ab", "1'abb~", "1'abc")
        for s in enumerated(sig)
    ]
    structures.append(make_proper_ra(3))
    assert {s.n_atoms for s in structures} == {1, 2, 3, 4, 9}
    for s in structures:
        comp, conv = s.tables
        want_comp, want_conv = oracles.element_tables(s)
        assert comp.dtype == conv.dtype == np.int64
        assert np.array_equal(comp, want_comp), s.label
        assert np.array_equal(conv, want_conv), s.label


def test_element_formatting_and_parsing():
    s = enumerate_integral("1'abb~")[0]
    assert s.format_element(0) == "0"
    assert s.format_element(0b0110) == "a+b"
    assert s.parse_element("a+b") == 0b0110
    assert s.parse_element("a,b~") == 0b1010
    assert s.parse_element("5") == 5
    assert s.parse_element("0") == 0
    with pytest.raises(AtomStructureError):
        s.parse_element("zz")
    with pytest.raises(AtomStructureError):
        s.parse_element("99")


def test_structure_file_round_trip(tmp_path):
    s = enumerate_integral("1'abc")[10]
    text = format_structure(s)
    back = parse_structure(text)
    assert back.triples == s.triples
    assert back.conv == s.conv
    assert back.identity == s.identity


def test_parse_structure_applies_cycle_closure():
    text = "atoms=2 identity=0 converse=0,1\ncycle 0 0 0\ncycle 0 1 1\ncycle 1 1 1\n"
    s = parse_structure(text)
    # one representative per cycle implies its whole orbit
    assert (1, 0, 1) in s.triples and (1, 1, 0) in s.triples
    assert verify_axioms(s)


def test_identity_atoms_keep_their_names_in_either_index_order():
    # an identity atom whose converse is a diversity atom is still named 1'
    assert parse_structure("atoms=2 identity=0 converse=1,0\n").atom_names == ("1'", "a")
    assert parse_structure("atoms=2 identity=1 converse=1,0\n").atom_names == ("a", "1'")


def test_parse_structure_errors():
    with pytest.raises(AtomStructureError):
        parse_structure("no header")
    with pytest.raises(AtomStructureError):
        parse_structure("atoms=2 identity=0 converse=0,1\nbad line here\n")
    head = "atoms=2 identity=0 converse=0,1"
    bad = [("bogus=7", "'bogus=7'"), ("extra", "'extra'"), ("identity=1", "'identity'")]
    for extra, named in bad:
        with pytest.raises(AtomStructureError, match=named):
            parse_structure(f"{head} {extra}\n")


_SMALL = st.integers(-1, 3).map(str)
_LIST = st.lists(_SMALL, max_size=4).map(",".join)
_HEADER = st.one_of(
    st.sampled_from(
        [
            "atoms=1 identity=0 converse=0",
            "atoms=2 identity=0 converse=0,1",
            "atoms=3 identity=0 converse=0,2,1",
            "atoms=3 identity=0,1 converse=0,1,2",
        ]
    ),
    st.builds("atoms={} identity={} converse={}".format, _SMALL, _LIST, _LIST),
)
_CYCLE = st.builds("cycle {} {} {}".format, _SMALL, _SMALL, _SMALL)
STRUCTURE_TEXT = st.one_of(
    st.text(),
    st.builds(
        lambda head, lines: "\n".join([head, *lines]),
        st.one_of(_HEADER, st.text()),
        st.lists(st.one_of(_CYCLE, st.text()), max_size=6),
    ),
)


@settings(max_examples=300, deadline=None)
@given(STRUCTURE_TEXT)
def test_parse_structure_returns_a_structure_or_raises(text):
    try:
        s = parse_structure(text)
    except AtomStructureError:
        return
    assert isinstance(s, AtomStructure)
    assert parse_structure(format_structure(s)) == s


def test_model_handle_operations():
    s = make_proper_ra(2)
    m = s.handle()
    assert m.comp(m.ident, s.top) == s.top
    assert m.join(1, 2) == 3
    assert m.compl(0) == s.top
    assert m.leq(1, 3) and not m.leq(3, 1)
    assert list(m.elements()) == list(range(16))


def test_handle_builds_the_tables_on_the_first_composition():
    s = make_proper_ra(2)
    m = s.handle()
    term = parse_term("x & -(y + id) + 1")
    assert model.eval_term(m, term, {"x": 7, "y": 2}) == s.top
    assert "tables" not in s.__dict__
    # the pair atoms p00 = 1 and p01 = 2: conv(p00);p01 = p01
    assert model.eval_term(m, parse_term("conv(x);y"), {"x": 1, "y": 2}) == 2
    assert "tables" in s.__dict__


def test_signature_normalization():
    assert normalize_signature("1'ab b̄") == "1'abb~"
    assert normalize_signature("1'aā") == "1'aa~"
    assert normalize_signature("1'abb~") == "1'abb~"
    assert normalize_signature("1'abc c̄") == "1'abcc~"  # c and a combining macron


@pytest.mark.parametrize(
    "signature", ["1'", "1'a", "1'aa~", "1'ab", "1'abb~", "1'abc", "1'aa~bb~"]
)
def test_enumeration_counts(enumerated, signature):
    structures = enumerated(signature)
    assert len(structures) == TABLE_TOTALS[signature]


def test_enumerated_structures_verify_axioms(enumerated):
    for sig in ("1'ab", "1'abb~", "1'abc"):
        for s in enumerated(sig):
            assert verify_axioms(s), s.label


def test_enumeration_is_deterministic():
    once = enumerate_integral("1'ab")
    twice = enumerate_integral("1'ab")
    assert [s.triples for s in once] == [s.triples for s in twice]
    assert [s.label for s in once] == ["1'ab#" + str(i) for i in range(7)]


@pytest.mark.parametrize("signature", ["1'abb~", "1'abc", "1'aa~bb~", "1'abcc~"])
def test_canonical_masks_are_orbit_minima(signature):
    # each atom symmetry maps every orbit onto a whole orbit, so it permutes
    # the orbit bits; walking the masks upwards, the first mask not yet
    # reached from a smaller one is the minimum of its orbit
    _, _, conv = signature_spec(signature, stretch=True)
    orbits = diversity_orbits(conv)
    perms = atom_symmetries(conv)
    position = {frozenset(orbit): j for j, orbit in enumerate(orbits)}
    sigmas = [
        tuple(
            position[frozenset((p[x], p[y], p[z]) for x, y, z in orbit)]
            for orbit in orbits
        )
        for p in perms
    ]
    assert orbit_permutations(orbits, perms) == sigmas
    reached, minima = set(), []
    for mask in range(1 << len(orbits)):
        if mask in reached:
            continue
        minima.append(mask)
        for sigma in sigmas:
            reached.add(sum(1 << j for i, j in enumerate(sigma) if mask >> i & 1))
    assert kernels.canonical_masks(sigmas, 0, 1 << len(orbits)).tolist() == minima


def test_canonical_masks_split_into_ranges():
    # uneven ranges, an empty one and a one-mask one included, concatenate
    # to the result over the whole range
    _, _, conv = signature_spec("1'abcc~", stretch=True)
    orbits = diversity_orbits(conv)
    sigmas = orbit_permutations(orbits, atom_symmetries(conv))
    end = 1 << len(orbits)
    cuts = [0, 1, 1, 1000, 12_345, 40_000, end - 1, end]
    parts = [kernels.canonical_masks(sigmas, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    whole = kernels.canonical_masks(sigmas, 0, end)
    assert len(whole) == 18_816
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize(
    "conv",
    [signature_spec(sig, stretch=True)[2] for sig in SIGNATURES + STRETCH_SIGNATURES],
)
def test_diversity_orbits_are_numbered_by_least_triple(conv):
    # canonical_key's premise: orbits come in increasing order of their
    # least triple and are disjoint from each other and from the forced
    # triples
    orbits = diversity_orbits(conv)
    assert all(orbit[0] == min(orbit) for orbit in orbits)
    firsts = [orbit[0] for orbit in orbits]
    assert all(a < b for a, b in zip(firsts, firsts[1:]))
    every = [t for orbit in orbits for t in orbit]
    assert len(set(every)) == len(every)
    assert forced_triples(conv).isdisjoint(every)


REGISTERED_CONVS = [
    signature_spec(sig, stretch=True)[2] for sig in SIGNATURES + STRETCH_SIGNATURES
]


def _involutions(n):
    return [p for p in itertools.permutations(range(n)) if all(p[p[i]] == i for i in range(n))]


def test_peirce_orbit_is_the_stack_closure():
    # the six written-out images are the whole orbit: every triple of every
    # converse on 1-5 atoms, and of every registered row
    convs = [conv for n in range(1, 6) for conv in _involutions(n)] + REGISTERED_CONVS
    checked = 0
    for conv in convs:
        for t in itertools.product(range(len(conv)), repeat=3):
            assert peirce_orbit(t, conv) == oracles.peirce_closure(t, conv), (conv, t)
            checked += 1
    assert checked == 4797


@pytest.mark.parametrize("conv", REGISTERED_CONVS)
def test_forced_triples_are_cycle_closed(conv):
    forced = forced_triples(conv)
    assert all(oracles.peirce_closure(t, conv) <= forced for t in forced)


@pytest.mark.parametrize("conv", REGISTERED_CONVS)
def test_orbit_table_matches_a_plain_loop(conv):
    n, forced, orbits = len(conv), forced_triples(conv), diversity_orbits(conv)
    k = len(orbits)
    holder = {t: k for t in forced}
    for i, orbit in enumerate(orbits):
        for t in orbit:
            holder[t] = i
    table = kernels.orbit_table(n, forced, orbits)
    assert table.shape == (n, n, n)
    for t in itertools.product(range(n), repeat=3):
        assert table[t] == holder.get(t, k + 1), t


def test_orbit_image_matches_plain_loop():
    _, _, conv = signature_spec("1'abcd", stretch=True)
    orbits = diversity_orbits(conv)
    sigmas = orbit_permutations(orbits, atom_symmetries(conv))
    assert len(sigmas) == 24
    rng = random.Random(0)
    masks = [rng.getrandbits(len(orbits)) for _ in range(2000)]
    for sigma in sigmas:
        plain = [sum(1 << sigma[i] for i in range(len(orbits)) if m >> i & 1) for m in masks]
        assert kernels.orbit_image(np.array(masks, dtype=np.int64), sigma).tolist() == plain


def _check_canonical_key(conv, masks):
    # each row is the oracle's least sorted image, as codes padded with -1
    n, forced, orbits = len(conv), forced_triples(conv), diversity_orbits(conv)
    perms = atom_symmetries(conv)
    sigmas = orbit_permutations(orbits, perms)
    keys = canonical_key(n, forced, orbits, np.array(masks, dtype=np.int64), sigmas)
    brute = [
        [(x * n + y) * n + z for x, y, z in oracles.canonical_key_brute(
            oracles.mask_triples(forced, orbits, mask), perms)]
        for mask in masks
    ]
    width = max(map(len, brute))
    assert keys.tolist() == [codes + [-1] * (width - len(codes)) for codes in brute]


@pytest.mark.parametrize("signature", [*SIGNATURES, "1'abcc~"])
def test_canonical_key_matches_oracle_on_every_class(signature):
    n, forced, orbits, masks = _filter_inputs(signature_spec(signature, stretch=True)[2])
    classes = kernels.associative_candidates(n, forced, orbits, masks)
    assert len(classes) == TABLE_TOTALS[signature]
    _check_canonical_key(signature_spec(signature, stretch=True)[2], classes.tolist())


def test_canonical_key_matches_oracle_on_arbitrary_masks():
    # neither canonical nor associative: the least-image rule needs neither
    _, _, conv = signature_spec("1'abcd", stretch=True)
    rng = random.Random(1)
    _check_canonical_key(conv, [rng.getrandbits(20) for _ in range(2000)])


SIX_ATOM_PIPELINE = """
import re
from branchalg.finra import enumerate_integral

# a count builds no class, so the peak is the mask phases' (canonicity,
# filter, canonical_key, lexsort); building the 47,965 classes peaked at 280 MB
classes = enumerate_integral("1'abb~cc~", stretch=True)
with open("/proc/self/status") as fh:
    print(len(classes), re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1])
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_six_atom_enumeration_fits_in_200_mb():
    # the whole 2^25 masks at once peaked at 1,085 MB; ranges of
    # kernels.CHUNK bound the mask phases by the range, not by 2^k.  The
    # peak is VmHWM, not ru_maxrss, which keeps the forking test process's
    # peak across exec
    src = str(Path(kernels.__file__).parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", SIX_ATOM_PIPELINE],
        env=env, capture_output=True, text=True, check=True,
    )
    classes, peak_kb = map(int, run.stdout.split())
    assert classes == 47_965
    assert peak_kb < 200 * 1024


@pytest.mark.parametrize("signature", [*SIGNATURES, "1'abcc~"])
def test_enumeration_matches_brute_force(signature):
    fast = enumerate_integral(signature, stretch=True)
    brute = oracles.enumerate_brute(signature, stretch=True)
    assert [(s.label, s.triples) for s in fast] == [(s.label, s.triples) for s in brute]


def test_enumeration_pairwise_nonisomorphic(enumerated):
    _, names, conv = signature_spec("1'abb~")
    perms = atom_symmetries(conv)
    keys = {oracles.canonical_key_brute(s.triples, perms) for s in enumerated("1'abb~")}
    assert len(keys) == 37


@pytest.mark.parametrize("signature", [*SIGNATURES, "1'abcc~"])
def test_enumerated_structures_pass_full_validation(signature):
    # enumeration skips the per-triple check on each class; the full
    # constructor must accept every structure it returns
    for s in enumerate_integral(signature, stretch=True):
        rebuilt = AtomStructure(s.atom_names, s.conv, s.identity, s.triples, s.label)
        assert rebuilt == s


def test_stretch_row_order_matches_oracle_keys():
    # the fast-vs-brute comparison stops at 1'abcc~; on 1'abcd the labels
    # must still follow strictly increasing per-structure oracle keys
    _, _, conv = signature_spec("1'abcd", stretch=True)
    perms = atom_symmetries(conv)
    keys = [
        oracles.canonical_key_brute(s.triples, perms)
        for s in enumerate_integral("1'abcd", stretch=True)
    ]
    assert len(keys) == TABLE_TOTALS["1'abcd"]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_unsupported_and_stretch_signatures():
    with pytest.raises(UnsupportedSignatureError):
        enumerate_integral("1'xyz")
    with pytest.raises(UnsupportedSignatureError):
        enumerate_integral("1'abcd")  # stretch target needs the flag


def test_stretch_row_counts():
    assert len(enumerate_integral("1'abcc~", stretch=True)) == TABLE_TOTALS["1'abcc~"]
    assert len(enumerate_integral("1'abcd", stretch=True)) == TABLE_TOTALS["1'abcd"]


def test_counting_builds_no_structure(monkeypatch):
    def refuse(cls, *args, label):
        raise AssertionError(f"{label} built")

    monkeypatch.setattr(AtomStructure, "_closed", classmethod(refuse))
    for signature, total in TABLE_TOTALS.items():
        assert len(enumerate_integral(signature, stretch=True)) == total


def _eager_classes(signature):
    """The (label, triples) pair of every class, each built up front from
    the sorted masks with the bits read by numpy: the reference for the
    classes that enumerate_integral builds when they are read."""
    key, _, conv = signature_spec(signature, stretch=True)
    n, forced, orbits, masks = _filter_inputs(conv)
    sigmas = orbit_permutations(orbits, atom_symmetries(conv))
    masks = kernels.associative_candidates(n, forced, orbits, masks)
    masks = masks[np.lexsort(canonical_key(n, forced, orbits, masks, sigmas).T[::-1])]
    selected = (masks[:, None] >> np.arange(len(orbits))) & 1
    orbit_sets = [frozenset(orbit) for orbit in orbits]
    return [
        (f"{key}#{i}", forced.union(*itertools.compress(orbit_sets, bits)))
        for i, bits in enumerate(selected.tolist())
    ]


def test_classes_are_read_as_the_eager_list():
    eager = _eager_classes("1'abcc~")
    classes = enumerate_integral("1'abcc~", stretch=True)
    assert len(classes) == len(eager) == TABLE_TOTALS["1'abcc~"]

    def pair(s):
        return s.label, s.triples

    for i in (0, -1, len(eager) // 2):
        assert pair(classes[i]) == eager[i]
    assert classes[-1].label == f"1'abcc~#{len(eager) - 1}"
    assert [pair(s) for s in classes[700:10:-97]] == eager[700:10:-97]
    assert [pair(s) for s in classes] == eager
    # each read builds a new structure, equal to the last one
    assert classes[5] == classes[5] and classes[5] is not classes[5]


def test_reading_past_the_last_class_raises():
    classes = enumerate_integral("1'ab")
    for i in (len(classes), -len(classes) - 1):
        with pytest.raises(IndexError):
            classes[i]

"""Enumeration of integral finite relation algebras by atom signature.

A signature fixes the diversity atoms and their converse pairing (the
identity is a single atom).  A candidate structure is the set of forced
identity triples plus a union of cycle-transform orbits of diversity
triples, written as a mask with one bit per orbit.  Two candidates are
isomorphic when an atom relabeling that fixes the identity and commutes
with converse (a symmetry) maps one onto the other.

Canonicity comes first.  A symmetry maps cycle orbits to cycle orbits, so
it acts on masks as a permutation of their bits (``orbit_permutations``),
and ``kernels.canonical_masks`` keeps the masks that are the minimum of
their orbit under these permutations.  Only those masks go through the
associativity filter, and each survivor is the one structure of its class.

Why this keeps the same representatives as filtering every mask in
increasing order and keeping the first member of each class: a symmetry
fixes the forced triples (they are defined by the identity and converse
alone) and carries a structure to an isomorphic copy of itself, so it
preserves associativity.  The associative masks are therefore a union of
whole orbits, and the first associative mask of a class in increasing
order is the minimum of its orbit: the canonical mask.  ``canonical_key``
is then computed once per class, only to put the classes in their
published order.
"""

from __future__ import annotations

import itertools

from .atoms import AtomStructure, peirce_orbit
from . import kernels

# signature -> (atom names, converse permutation); index 0 is the identity
SIGNATURES: dict[str, tuple[tuple[str, ...], tuple[int, ...]]] = {
    "1'": (("1'",), (0,)),
    "1'a": (("1'", "a"), (0, 1)),
    "1'aa~": (("1'", "a", "a~"), (0, 2, 1)),
    "1'ab": (("1'", "a", "b"), (0, 1, 2)),
    "1'abb~": (("1'", "a", "b", "b~"), (0, 1, 3, 2)),
    "1'abc": (("1'", "a", "b", "c"), (0, 1, 2, 3)),
    "1'aa~bb~": (("1'", "a", "a~", "b", "b~"), (0, 2, 1, 4, 3)),
}

STRETCH_SIGNATURES: dict[str, tuple[tuple[str, ...], tuple[int, ...]]] = {
    "1'abcc~": (("1'", "a", "b", "c", "c~"), (0, 1, 2, 4, 3)),
    "1'abcd": (("1'", "a", "b", "c", "d"), (0, 1, 2, 3, 4)),
}


def normalize_signature(text: str) -> str:
    """Accept the row labels with or without spaces and with overbars."""
    out = text.replace(" ", "")
    for bar, ascii_ in (("ā", "a~"), ("b̄", "b~"), ("c̄", "c~")):
        out = out.replace(bar, ascii_)
    out = out.replace("̄", "~")
    return out


class UnsupportedSignatureError(Exception):
    pass


def signature_spec(signature: str, stretch: bool = False):
    key = normalize_signature(signature)
    if key in SIGNATURES:
        return key, *SIGNATURES[key]
    if key in STRETCH_SIGNATURES:
        if not stretch:
            raise UnsupportedSignatureError(
                f"signature {signature!r} is a stretch target; pass stretch=True"
            )
        return key, *STRETCH_SIGNATURES[key]
    raise UnsupportedSignatureError(f"unsupported signature {signature!r}")


def forced_triples(conv: tuple[int, ...]) -> frozenset:
    """Identity-atom triples present in every integral structure."""
    out = set()
    for x in range(len(conv)):
        out.add((0, x, x))
        out.add((x, 0, x))
        out.add((x, conv[x], 0))
    closed = set()
    for t in out:
        closed |= peirce_orbit(t, conv)
    return frozenset(closed)


def diversity_orbits(conv: tuple[int, ...]) -> list[tuple]:
    div = range(1, len(conv))
    seen: set = set()
    orbits = []
    for t in itertools.product(div, repeat=3):
        if t in seen:
            continue
        orbit = peirce_orbit(t, conv)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def atom_symmetries(conv: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Atom relabelings fixing the identity and commuting with converse."""
    n = len(conv)
    out = []
    for p in itertools.permutations(range(1, n)):
        perm = (0,) + p
        if all(perm[conv[i]] == conv[perm[i]] for i in range(n)):
            out.append(perm)
    return out


def orbit_permutations(orbits: list[tuple], perms) -> list[tuple[int, ...]]:
    """For each symmetry, the index of the orbit it sends each orbit to."""
    index = {t: i for i, orbit in enumerate(orbits) for t in orbit}
    firsts = [orbit[0] for orbit in orbits]
    return [tuple(index[p[x], p[y], p[z]] for x, y, z in firsts) for p in perms]


def canonical_key(triples, perms) -> tuple:
    best = None
    for p in perms:
        img = tuple(sorted((p[x], p[y], p[z]) for x, y, z in triples))
        if best is None or img < best:
            best = img
    return best


def enumerate_integral(signature: str, stretch: bool = False) -> list[AtomStructure]:
    """All pairwise non-isomorphic integral structures over the signature.

    Output order is deterministic (sorted canonical keys), so indexed picks
    are stable across runs.
    """
    key, names, conv = signature_spec(signature, stretch=stretch)
    orbits = diversity_orbits(conv)
    perms = atom_symmetries(conv)
    masks = kernels.canonical_masks(len(orbits), orbit_permutations(orbits, perms))
    forced = forced_triples(conv)
    classes = kernels.associative_candidates(len(conv), forced, orbits, masks)
    classes.sort(key=lambda triples: canonical_key(triples, perms))
    return [
        AtomStructure(
            atom_names=names,
            conv=conv,
            identity=frozenset({0}),
            triples=triples,
            label=f"{key}#{i}",
        )
        for i, triples in enumerate(classes)
    ]


TABLE_TOTALS = {
    "1'": 1,
    "1'a": 2,
    "1'aa~": 3,
    "1'ab": 7,
    "1'abb~": 37,
    "1'abc": 65,
    "1'aa~bb~": 83,
    "1'abcc~": 1316,
    "1'abcd": 3013,
}

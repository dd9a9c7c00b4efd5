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
``enumerate_integral`` walks the 2^k masks in ranges of ``kernels.CHUNK``
and filters each range's canonical masks before the next range, so memory
grows with ``CHUNK``, not with 2^k.

Why this keeps the same representatives as filtering every mask in
increasing order and keeping the first member of each class: a symmetry
fixes the forced triples (they are defined by the identity and converse
alone) and carries a structure to an isomorphic copy of itself, so it
preserves associativity.  The associative masks are therefore a union of
whole orbits, and the first associative mask of a class in increasing
order is the minimum of its orbit: the canonical mask.

The published order is by canonical key: the least, over the symmetries,
of a structure's sorted triple list.  ``canonical_key`` computes it for
every class in one numpy pass per signature.  It picks each class's least
image on masks, with ``kernels.orbit_image`` and the rule that the image
holding the lowest orbit where two images differ is the smaller (proof in
its docstring), then writes that image's triples as integer codes and
sorts them once, in rows padded with -1.  ``np.lexsort`` orders the masks
by these rows before any triple set is built.

Validation happens once per signature, not once per structure: the forced
triples, and the forced triples with each orbit, go through the full
``AtomStructure`` check, and every class is a union of these cycle-closed
sets on the same converse and identity, so it is valid by construction and
skips every check.

No class is built before it is read.  ``enumerate_integral`` returns an
``EnumeratedClasses``: the sorted masks, with entry ``i`` built as its
``AtomStructure`` (the forced triples and the orbits of mask ``i``) on each
read.  Counting the classes builds none, so the count of the six-atom row
costs only the mask phases.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence

import numpy as np

from .. import UsageError
from .atoms import AtomStructure, peirce_orbit
from . import kernels

# the registered rows; signature_spec reads the atoms off each key
SIGNATURES = ("1'", "1'a", "1'aa~", "1'ab", "1'abb~", "1'abc", "1'aa~bb~")
STRETCH_SIGNATURES = ("1'abcc~", "1'abcd", "1'abb~cc~")


def normalize_signature(text: str) -> str:
    """Accept the row labels with or without spaces and with overbars."""
    out = text.replace(" ", "")
    # ā is one precomposed character; a letter with a combining macron is two
    return out.replace("ā", "a~").replace("̄", "~")


class UnsupportedSignatureError(UsageError):
    pass


def signature_spec(signature: str, stretch: bool = False):
    """The key, atom names and converse permutation of a registered row.

    The names are the identity 1' (index 0) and then the key's letters, each
    optionally followed by ~; x~ is the converse of x, and an atom without a
    ~ partner is its own converse.
    """
    key = normalize_signature(signature)
    if key in STRETCH_SIGNATURES and not stretch:
        raise UnsupportedSignatureError(
            f"signature {signature!r} is a stretch target; pass --stretch"
            " (stretch=True from Python) to run it"
        )
    if key not in SIGNATURES + STRETCH_SIGNATURES:
        raise UnsupportedSignatureError(f"unsupported signature {signature!r}")
    names = ("1'", *re.findall(r"[a-z]~?", key[2:]))
    mates = [n[:-1] if n.endswith("~") else n + "~" for n in names]
    conv = tuple(names.index(m) if m in names else i for i, m in enumerate(mates))
    return key, names, conv


def forced_triples(conv: tuple[int, ...]) -> frozenset:
    """Identity-atom triples present in every integral structure: (1', x, x),
    (x, 1', x) and (x, x~, 1') for every atom x.  The three families are
    closed under the cycle transforms: (x, y, z) -> (x~, z, y) fixes the
    first and swaps the other two, (x, y, z) -> (z, y~, x) fixes the second
    and swaps the others."""
    return frozenset(
        t for x, xc in enumerate(conv) for t in ((0, x, x), (x, 0, x), (x, xc, 0))
    )


def diversity_orbits(conv: tuple[int, ...]) -> list[tuple]:
    """The Peirce orbits of the diversity triples, each as a sorted tuple.

    The scan meets triples in increasing order, so each orbit starts at its
    least triple and the orbits come in increasing order of it.
    """
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
    table = kernels.orbit_table(len(perms[0]), (), orbits).tolist()
    firsts = [orbit[0] for orbit in orbits]
    return [tuple(table[p[x]][p[y]][p[z]] for x, y, z in firsts) for p in perms]


def canonical_key(n: int, forced, orbits, masks, sigmas) -> np.ndarray:
    """The sort keys of the structures the masks stand for, one row per mask.

    A triple is written as the code x*n*n + y*n + z, its flat index in
    ``kernels.orbit_table``, so sorting codes sorts triples.  A row is the
    least, over the symmetries, of the sorted codes
    of the structure's image, padded on the right with -1: rows then compare
    lexicographically as the sorted triple tuples do, a shorter list first.

    The least image is chosen on masks, and only its codes are built and
    sorted.  A symmetry fixes the forced triples and sends orbit i to orbit
    sigma[i], so the image of a mask's structure is the structure of
    ``kernels.orbit_image(mask, sigma)``.  Of two images a and b of one
    structure, the one that holds the lowest orbit j of a ^ b has the
    smaller sorted triple list:

    - ``diversity_orbits`` numbers orbits by their least triple, so every
      triple of an orbit numbered above j is larger than t, the least
      triple of orbit j;
    - orbits are disjoint from each other and from the forced triples, so
      the triples that one image holds and the other does not are those of
      the orbits of a ^ b, and the least of them is t;
    - both images hold equally many triples, since a symmetry is a bijection.

    So both lists start with the same triples below t; next comes t in the
    image that holds it, and in the other, which still has a next triple, a
    triple larger than t.  On masks, a holds orbit j when a & d & -d is
    nonzero, d = a ^ b.  Across classes the triple counts differ and one
    list can be a prefix of another, hence the padding.
    """
    best = kernels.orbit_image(masks, sigmas[0])
    for sigma in sigmas[1:]:
        image = kernels.orbit_image(masks, sigma)
        diff = image ^ best
        best = np.where(image & diff & -diff != 0, image, best)
    # the codes of the triples a structure can hold, in increasing order;
    # each reads the bit of the orbit that holds it, and the forced triples
    # read bit k, which is always set
    k = len(orbits)
    holder = kernels.orbit_table(n, forced, orbits).ravel()
    code = np.flatnonzero(holder <= k).astype(np.int16)
    bits = np.ones((len(masks), k + 1), dtype=bool)
    bits[:, :k] = best[:, None] >> np.arange(k) & 1
    present = bits[:, holder[code]]
    size = n**3  # below int16's limit for the signatures here (n < 32)
    # each row's codes in increasing order, then `size` as right padding
    rows = np.sort(np.where(present, code, np.int16(size)), axis=1)
    rows = rows[:, : int(present.sum(axis=1).max())]
    rows[rows == size] = -1
    return rows


class EnumeratedClasses(Sequence):
    """The classes of one signature in published order, built when read.

    It holds the sorted masks, so ``len()`` builds nothing.  Entry ``i`` is
    built on every read, as ``AtomStructure._closed`` over the forced
    triples and the orbits of mask ``i``, labelled ``{key}#{i}``: two reads
    give equal structures, not the same object.  Negative indices count
    from the end, a slice gives a list, and iteration follows the order.
    """

    def __init__(self, key, names, conv, identity, forced, orbits, masks: np.ndarray):
        self._key, self._names, self._conv = key, names, conv
        self._identity, self._forced = identity, forced
        # frozensets keep their triples' hashes, so a union does not rehash them
        self._orbit_sets = [frozenset(orbit) for orbit in orbits]
        self._masks = masks.tolist()

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self._masks))[i]  # negative indices and IndexError
        mask = self._masks[i]
        # bin() reversed reads the mask's bits from bit 0 up, one per orbit
        chosen = [s for s, bit in zip(self._orbit_sets, bin(mask)[:1:-1]) if bit == "1"]
        return AtomStructure._closed(
            self._names, self._conv, self._identity, self._forced.union(*chosen),
            label=f"{self._key}#{i}",
        )


def enumerate_integral(signature: str, stretch: bool = False) -> EnumeratedClasses:
    """All pairwise non-isomorphic integral structures over the signature.

    Output order is deterministic (sorted canonical keys), so indexed picks
    are stable across runs.  The masks are sorted here; each structure is
    built when it is read (``EnumeratedClasses``), so a count builds none.

    Every structure is valid by construction: the forced triples, and the
    forced triples with each orbit, are checked once here by the full
    constructor, and each class is a union of these sets on the same
    converse and identity.  A union of cycle-closed sets is cycle-closed, so
    the classes skip the constructor's checks.
    """
    key, names, conv = signature_spec(signature, stretch=stretch)
    identity = frozenset({0})
    orbits = diversity_orbits(conv)
    forced = forced_triples(conv)
    for orbit in ((), *orbits):
        AtomStructure(names, conv, identity, forced.union(orbit))
    sigmas = orbit_permutations(orbits, atom_symmetries(conv))
    end = 1 << len(orbits)
    kept = []
    for lo in range(0, end, kernels.CHUNK):
        batch = kernels.canonical_masks(sigmas, lo, min(lo + kernels.CHUNK, end))
        kept.append(kernels.associative_candidates(len(conv), forced, orbits, batch))
    masks = np.concatenate(kept)
    keys = canonical_key(len(conv), forced, orbits, masks, sigmas)
    masks = masks[np.lexsort(keys.T[::-1])]
    return EnumeratedClasses(key, names, conv, identity, forced, orbits, masks)


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

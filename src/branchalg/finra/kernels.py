"""Hot numeric kernels: canonicity and associativity over orbit bitmasks
during enumeration.

Enumeration works on masks: bit i of a mask selects the i-th diversity
orbit, and the mask stands for the forced triples plus the union of the
selected orbits.  Canonicity is decided first, on integers:
``canonical_masks`` takes each atom symmetry as the permutation it induces
on the orbits and keeps a mask only when it is no larger than any of its
images, that is, when it is the minimum of its orbit under the symmetry
group.  ``associative_candidates`` then runs the associativity filter on
the masks it is given, which leaves about 1/|Aut| of the 2^k subsets to
test, and returns the surviving masks as an array: the caller orders them
(``enumeration.canonical_key``) before it builds any triple set.  Nothing
is lost: a symmetry fixes the forced triples and preserves associativity,
so a class of associative masks is a whole orbit, and its minimum, the
mask a scan over all 2^k in increasing order would keep first, is
canonical (see ``enumeration``).
"""

from __future__ import annotations

import numpy as np

# --- canonicity and associativity over orbit masks -------------------------


def canonical_masks(n_orbits: int, orbit_perms) -> np.ndarray:
    """The masks over n_orbits orbits that are the minimum of their orbit
    under the orbit permutations (one per atom symmetry; sigma[i] is where
    orbit i goes), in increasing order.

    A permutation moves the bits that share one offset sigma[i] - i by a
    single shift, so each image costs one mask, shift and OR per distinct
    offset.  Masks already shown non-minimal are dropped before the next
    symmetry.
    """
    masks = np.arange(1 << n_orbits, dtype=np.int64)
    for sigma in orbit_perms:
        moves: dict[int, int] = {}
        for i, j in enumerate(sigma):
            moves[j - i] = moves.get(j - i, 0) | 1 << i
        image = np.zeros_like(masks)
        for shift, bits in moves.items():
            moved = masks & bits
            image |= moved << shift if shift >= 0 else moved >> -shift
        masks = masks[masks <= image]
    return masks


def associative_candidates(n: int, forced, orbits, masks) -> np.ndarray:
    """The masks whose structure (forced plus the orbits the mask selects)
    has an associative atom-level composition.

    ``masks`` is an int64 array; the survivors come back as one, in its
    order.
    """
    base = np.zeros((n, n), dtype=np.uint32)
    for x, y, z in forced:
        base[x, y] |= 1 << z
    contrib = np.zeros((len(orbits), n, n), dtype=np.uint32)
    for i, orbit in enumerate(orbits):
        for x, y, z in orbit:
            contrib[i, x, y] |= 1 << z
    chunk = 1 << 16
    keep = [
        _assoc_chunk_numpy(base, contrib, masks[start : start + chunk], n)
        for start in range(0, len(masks), chunk)
    ]
    return masks[np.concatenate(keep)]


def _assoc_chunk_numpy(base, contrib, bits, n):
    """Which masks in bits give an associative atom composition.

    comp[x, y] holds x;y for every mask, as a contiguous column.  Only
    diversity atoms x, y, z are tried: the forced triples make 1' an exact
    two-sided unit (no orbit holds a triple with 1'), so (x;y);z = x;(y;z)
    holds outright when any of the three is 1'.
    """
    count = len(bits)
    comp = np.empty((n, n, count), dtype=np.uint32)
    comp[...] = base[:, :, None]
    for i in range(contrib.shape[0]):
        comp |= contrib[i][:, :, None] * ((bits >> i) & 1).astype(np.uint32)
    ok = np.ones(count, dtype=bool)
    for x in range(1, n):
        for y in range(1, n):
            cxy = comp[x, y]
            for z in range(1, n):
                cyz = comp[y, z]
                lhs = np.zeros(count, dtype=np.uint32)
                rhs = np.zeros(count, dtype=np.uint32)
                for w in range(n):
                    lhs |= np.where((cxy >> w) & 1, comp[w, z], 0)
                    rhs |= np.where((cyz >> w) & 1, comp[x, w], 0)
                ok &= lhs == rhs
    return ok


# The formula checks live in jlm.check_jlm; perfbench's tracer still patches this name.
find_violation = None

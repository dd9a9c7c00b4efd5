"""Hot numeric kernels: canonicity and associativity over orbit bitmasks
during enumeration.

Enumeration works on masks: bit i of a mask selects the i-th diversity
orbit, and the mask stands for the forced triples plus the union of the
selected orbits; ``orbit_table`` maps each atom triple to the orbit that
holds it, for the filter and ``enumeration.canonical_key``.  An atom
symmetry acts on masks as the permutation it induces on the orbits, and
``orbit_image`` maps a batch of masks under one such permutation with a
shift and OR per bit offset; canonicity and
``enumeration.canonical_key`` both read images through it.  Canonicity is
decided first, on integers: ``canonical_masks`` keeps a mask only when it
is no larger than any of its images, that is, when it is the minimum of
its orbit under the symmetry group.  ``associative_candidates`` then runs
the associativity filter on the masks it is given, which leaves about
1/|Aut| of the 2^k subsets to test, and returns the surviving masks as an
array: the caller orders them (``enumeration.canonical_key``) before it
builds any triple set.  Nothing is lost: a symmetry fixes the forced
triples and preserves associativity, so a class of associative masks is a
whole orbit, and its minimum, the mask a scan over all 2^k in increasing
order would keep first, is canonical (see ``enumeration``).  ``enumeration.enumerate_integral`` runs
both kernels on one range of ``CHUNK`` masks at a time, so memory grows
with ``CHUNK``, not with 2^k.

The filter works on the batch it is given, bit-sliced: bit i of every
mask is packed into row i of a byte array, 8 masks a byte, so each test
ANDs and ORs whole rows and a fixed handful of numpy calls tests every
mask at once.  The tests of the triples (1, y, z) run first, on the whole
batch, and leave about one mask in ten on the five-atom rows (2,101 of
18,816 on 1'abcc~); the other tests then run once, on those survivors.
Of each pair of triples (x, y, z) and (z~, y~, x~) it tests only one,
since converse maps associativity at one onto the other (proof in
``associative_candidates``).
"""

from __future__ import annotations

import itertools

import numpy as np

CHUNK = 1 << 20  # masks per range; every registered row (at most 20 orbits) is one

# --- canonicity and associativity over orbit masks -------------------------


def orbit_image(masks, sigma) -> np.ndarray:
    """The images of the int64 masks under one orbit permutation (sigma[i]
    is where orbit i goes): bit sigma[i] of an image is bit i of its mask.

    A permutation moves the bits that share one offset sigma[i] - i by a
    single shift, so an image costs one mask, shift and OR per distinct
    offset.
    """
    moves: dict[int, int] = {}
    for i, j in enumerate(sigma):
        moves[j - i] = moves.get(j - i, 0) | 1 << i
    image = np.zeros_like(masks)
    for shift, bits in moves.items():
        moved = masks & bits
        image |= moved << shift if shift >= 0 else moved >> -shift
    return image


def orbit_table(n: int, forced, orbits) -> np.ndarray:
    """The (n, n, n) table whose entry [x, y, z] is the index of the orbit
    holding (x, y, z), k = len(orbits) for a forced triple and k + 1 for a
    triple no structure holds."""
    table = np.full((n, n, n), len(orbits) + 1)
    for i, triples in enumerate((*orbits, forced)):
        for t in triples:
            table[t] = i
    return table


def canonical_masks(orbit_perms, lo: int, hi: int) -> np.ndarray:
    """The masks in [lo, hi) that are the minimum of their orbit
    under the orbit permutations (one per atom symmetry; sigma[i] is where
    orbit i goes), in increasing order; hi is at most 2^k over k orbits.

    Masks already shown non-minimal are dropped before the next symmetry.
    Minimality depends on no other mask, so ranges split the work.
    """
    masks = np.arange(lo, hi, dtype=np.int64)
    for sigma in orbit_perms:
        if list(sigma) != sorted(sigma):  # the identity maps every mask to itself
            masks = masks[masks <= orbit_image(masks, sigma)]
    return masks


def associative_candidates(n: int, forced, orbits, masks) -> np.ndarray:
    """The masks whose structure (forced plus the orbits the mask selects)
    has an associative atom-level composition.

    ``masks`` is an int64 array; the survivors come back as one, in its
    order.  ``forced`` must hold the identity triples of every integral
    structure (``enumeration.forced_triples``) and each orbit must be a
    whole Peirce orbit of diversity triples; the converse is read off the
    forced triples (x, x~, 1').

    Only diversity triples (x, y, z) with (x, y, z) < (z~, y~, x~) are
    tested, and that loses nothing.  The identity: the forced triples make
    1' an exact two-sided unit (no orbit holds a triple with 1'), so
    (x;y);z = x;(y;z) holds outright when any of the three is 1'.  The
    converse: every structure here is forced plus whole orbits, so it is
    Peirce-closed, and (x, y, z) is a triple exactly when (y~, x~, z~) is;
    for sets of atoms that says (A;B)~ = B~;A~.  Hence
    ((x;y);z)~ = z~;(y~;x~) and (x;(y;z))~ = (z~;y~);x~, and as converse is
    a bijection on atoms, associativity at (x, y, z) holds exactly when it
    holds at (z~, y~, x~): of each such pair only the smaller is tested.

    That leaves the self-mirrored triples (x, y, x~) with y = y~, which
    the converse maps onto themselves.  Write A(x, y, z, w) for "w <=
    (x;y);z iff w <= x;(y;z)" at an atom w.  Peirce closure turns
    w <= u;z into u <= w;z~ and w <= x;v into v <= x~;w, so A(x, y, z, w)
    says that x;y meets w;z~ exactly when y;z meets x~;w.  Swapping the two
    meets' sides and taking the converse of the second shows that this form
    is unchanged under (x, y, z, w) -> (w, z~, y~, x).  So A(x, y, x~, w)
    is A(w, x, y, x), a condition of associativity at (w, x, y).  If w is
    1', that holds outright.  If (w, x, y) is not self-mirrored, the filter
    tests it or its mirror at every target.  Otherwise x = x~ and w = y, and
    both sides of A(y, x, y, x) read "x;y meets y;x".  So the self-mirrored
    triples are skipped too.

    The test is bit-sliced.  Row i of ``rows`` holds bit i of every live
    mask, 8 masks a byte (``np.packbits(masks >> i & 1)``, built a byte of
    mask bits at a time); row k is all ones and row k + 1 all zeros.
    h(x, y, z) = holder[x, y, z] (``orbit_table``) is the row of the triple
    (x, y, z): its orbit, k when it is forced, k + 1 when no structure
    holds it.  Then
    w <= (x;y);z is the OR over atoms u of rows[h(x, y, u)] & rows[h(u, z, w)],
    and w <= x;(y;z) the OR of rows[h(y, z, u)] & rows[h(x, u, w)].  Each
    side is one (tests, n, bytes) array, every tested triple and every w at
    once, built by a loop over u.  The tests with x = 1 run first, on every
    mask; the others run once, on the masks that passed, packed again.  The
    pad bits of the last byte are never unpacked, so they never count.
    """
    conv = {x: y for x, y, z in forced if z == 0}
    k = len(orbits)
    holder = orbit_table(n, forced, orbits)
    cube = itertools.product(range(n), repeat=3)
    tests = np.array(
        [t for t in cube if 0 not in t and t < (conv[t[2]], conv[t[1]], conv[t[0]])],
        dtype=np.intp,
    ).reshape(-1, 3)
    stages = (tests[tests[:, 0] == 1], tests[tests[:, 0] > 1])
    width = -(-k // 8)  # bytes of mask bits
    bit = 1 << np.arange(8, dtype=np.uint8)
    for x, y, z in (stage.T for stage in stages if len(stage)):
        size = -(-len(masks) // 8)
        # byte b of every mask, little-endian, holds its bits for rows 8b..8b+7
        low = masks.astype("<i8").view(np.uint8).reshape(-1, 8)[:, :width].T
        rows = np.zeros((8 * width + 2, size), dtype=np.uint8)
        rows[: 8 * width] = np.packbits(
            np.ascontiguousarray(low)[:, None] & bit[:, None], axis=2
        ).reshape(8 * width, size)
        rows[k] = 255
        rows[k + 1] = 0
        hxy, hyz = holder[x, y], holder[y, z]
        uzw, uxw = holder[:, z], holder[x].swapaxes(0, 1)
        lhs = np.zeros((len(x), n, size), dtype=np.uint8)
        rhs = np.zeros_like(lhs)
        for u in range(n):
            # in place, so that at most three (tests, n, size) arrays live
            part = rows[uzw[u]]
            part &= rows[hxy[:, u], None]
            lhs |= part
            part = rows[uxw[u]]
            part &= rows[hyz[:, u], None]
            rhs |= part
        lhs ^= rhs
        bad = np.bitwise_or.reduce(lhs, axis=(0, 1))
        masks = masks[np.unpackbits(~bad, count=len(masks)).view(bool)]
    return masks


# The formula checks live in jlm.check_jlm; perfbench's tracer still patches this name.
find_violation = None

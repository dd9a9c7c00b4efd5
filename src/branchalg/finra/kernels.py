"""Hot numeric kernels: canonicity and associativity over orbit bitmasks
during enumeration.

Enumeration works on masks: bit i of a mask selects the i-th diversity
orbit, and the mask stands for the forced triples plus the union of the
selected orbits.  An atom symmetry acts on masks as the permutation it
induces on the orbits, and ``orbit_image`` maps a batch of masks under one
such permutation with a shift and OR per bit offset; canonicity and
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

The filter works on the batch it is given.  It builds the batch's
composition table with one lookup per byte of mask bits, then walks the
atom pairs (x, y), testing every z of a pair at once, and drops the masks
that fail as they fail: few pass the first pairs, so most of the work is
done on a shrinking set.  Of each pair of triples (x, y, z) and
(z~, y~, x~) it tests only one, since converse maps associativity at one
onto the other (proof in ``associative_candidates``).
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


def canonical_masks(orbit_perms, lo: int, hi: int) -> np.ndarray:
    """The masks in [lo, hi) that are the minimum of their orbit
    under the orbit permutations (one per atom symmetry; sigma[i] is where
    orbit i goes), in increasing order; hi is at most 2^k over k orbits.

    Masks already shown non-minimal are dropped before the next symmetry.
    Minimality depends on no other mask, so ranges split the work.
    """
    masks = np.arange(lo, hi, dtype=np.int64)
    for sigma in orbit_perms:
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

    comp[x*n + y] holds x;y for every live mask (bit z set when (x, y, z)
    is a triple).  A step (x, y, zs) tests (x;y);z = x;(y;z) for all its z
    at once and drops the masks that fail, so none is tested once dead.
    """
    conv = {x: y for x, y, z in forced if z == 0}
    dtype = np.min_scalar_type((1 << n) - 1)
    base = np.zeros(n * n, dtype=dtype)
    for x, y, z in forced:
        base[x * n + y] |= 1 << z
    contrib = np.zeros((len(orbits), n * n), dtype=np.int64)
    for i, orbit in enumerate(orbits):
        for x, y, z in orbit:
            contrib[i, x * n + y] |= 1 << z
    # one table per byte of mask bits: column v is the OR of the byte's
    # orbits whose bit is set in v, a sum since orbits are disjoint
    byte_bits = np.arange(256) >> np.arange(8)[:, None] & 1
    tables = []
    for lo in range(0, len(orbits), 8):
        part = contrib[lo : lo + 8]
        tables.append((part.T @ byte_bits[: len(part)]).astype(dtype))
    steps = []
    for x, y in itertools.product(range(1, n), repeat=2):
        zs = [z for z in range(1, n) if (x, y, z) < (conv[z], conv[y], conv[x])]
        if zs:
            steps.append((x, y, np.array(zs)))
    comp = np.repeat(base[:, None], len(masks), axis=1)
    for b, table in enumerate(tables):
        comp |= np.take(table, masks >> 8 * b & 255, axis=1)
    for x, y, zs in steps:
        view = comp.reshape(n, n, -1)
        cxy, cyz = view[x, y], view[y, zs]
        lhs = np.zeros_like(cyz)
        rhs = np.zeros_like(cyz)
        for w in range(n):
            lhs |= view[w, zs] * (cxy >> w & 1)
            rhs |= view[x, w] * (cyz >> w & 1)
        ok = (lhs == rhs).all(axis=0)
        comp, masks = comp[:, ok], masks[ok]
    return masks


# The formula checks live in jlm.check_jlm; perfbench's tracer still patches this name.
find_violation = None

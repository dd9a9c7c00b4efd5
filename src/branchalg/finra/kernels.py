"""Hot numeric kernels: the associativity filter over candidate atom
structures during enumeration, and the element-level checks of the three
product-decomposition formulas.

The formula checks run the J, L and M laws of the catalog through the block
evaluator in model.search.
"""

from __future__ import annotations

import numpy as np

from .. import laws, model
from .atoms import table_handle

# --- associativity filter --------------------------------------------------


def associative_candidates(n: int, forced, orbits):
    """Yield the triple sets (forced plus orbit unions) whose atom-level
    composition is associative.

    Returns a list of frozensets.  Orbit subsets are scanned in increasing
    bit-pattern order, so output order is deterministic.
    """
    n_orbits = len(orbits)
    base = np.zeros((n, n), dtype=np.uint32)
    for x, y, z in forced:
        base[x, y] |= 1 << z
    contrib = np.zeros((n_orbits, n, n), dtype=np.uint32)
    for i, orbit in enumerate(orbits):
        for x, y, z in orbit:
            contrib[i, x, y] |= 1 << z
    total, chunk = 1 << n_orbits, 1 << 20
    survivors: list[int] = []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        mask = _assoc_chunk_numpy(base, contrib, start, stop, n)
        survivors.extend(start + i for i in np.flatnonzero(mask))
    out = []
    for bits in survivors:
        triples = set(forced)
        for i in range(n_orbits):
            if bits >> i & 1:
                triples.update(orbits[i])
        out.append(frozenset(triples))
    return out


def _assoc_chunk_numpy(base, contrib, start, stop, n):
    count = stop - start
    n_orbits = contrib.shape[0]
    comp = np.broadcast_to(base, (count, n, n)).copy()
    bits = np.arange(start, stop, dtype=np.int64)
    for i in range(n_orbits):
        sel = ((bits >> i) & 1).astype(bool)
        comp[sel] |= contrib[i]
    ok = np.ones(count, dtype=bool)
    for x in range(n):
        for y in range(n):
            cxy = comp[:, x, y]
            for z in range(n):
                lhs = np.zeros(count, dtype=np.uint32)
                rhs = np.zeros(count, dtype=np.uint32)
                cyz = comp[:, y, z]
                for w in range(n):
                    lhs |= np.where((cxy >> w) & 1, comp[:, w, z], 0)
                    rhs |= np.where((cyz >> w) & 1, comp[:, x, w], 0)
                ok &= lhs == rhs
    return ok


# --- element-level product-formula checks ----------------------------------


def find_violation(comp: np.ndarray, conv: np.ndarray, formula: str):
    """First violation of formula J, L or M over the elements of the algebra
    with these tables, as {variable: bitmask}, or None.

    Variables that model.reducible admits range over the atoms alone, which
    finds a violation whenever one over all elements exists.
    """
    law = laws.law_by_id(formula)
    m = table_handle(comp, conv)
    return model.search(m, law, model.Exhaustive(), model.reducible(law))[1]

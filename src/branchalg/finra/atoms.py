"""Finite relation algebras presented by atom structures.

An atom structure lists the atoms, an involutive converse pairing, the set of
identity atoms, and the allowed composition triples (x, y, z) meaning atom z
sits below atom x ; atom y.  Elements of the induced algebra are atom sets,
stored as bitmasks; all operations are unions over the atom tables.
AtomStructure.handle() is the one model handle of that algebra: the law,
axiom and formula checks all evaluate on it.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import UsageError, laws, model, terms

Triple = tuple[int, int, int]


class AtomStructureError(UsageError):
    pass


def peirce_orbit(t: Triple, conv: tuple[int, ...]) -> frozenset[Triple]:
    """The cycle of a triple: its orbit under the cycle transforms
    (x, y, z) -> (x~, z, y) and (x, y, z) -> (z, y~, x), which generate six
    maps (Maddux, *Relation Algebras*, 2006), so at most six triples."""
    x, y, z = t
    xc, yc, zc = conv[x], conv[y], conv[z]
    return frozenset(((x, y, z), (xc, z, y), (y, zc, xc), (yc, xc, zc), (zc, x, yc), (z, yc, x)))


def _union_table(values: np.ndarray) -> np.ndarray:
    """table[m] = the OR of values[i] over the atoms i of bitmask m, along
    the first axis.  Masks in [2**i, 2**(i+1)) are those below 2**i plus
    atom i, so each atom is one vectorised OR over the table so far."""
    n = len(values)
    table = np.zeros((1 << n, *values.shape[1:]), dtype=np.int64)
    for i in range(n):
        table[1 << i : 2 << i] = table[: 1 << i] | values[i]
    return table


@dataclass(frozen=True)
class AtomStructure:
    atom_names: tuple[str, ...]
    conv: tuple[int, ...]
    identity: frozenset[int]
    triples: frozenset[Triple]
    label: str = ""

    def __post_init__(self):
        n, conv, triples = self.n_atoms, self.conv, self.triples
        if sorted(conv) != list(range(n)):
            raise AtomStructureError("converse is not a permutation")
        if any(conv[conv[i]] != i for i in range(n)):
            raise AtomStructureError("converse is not involutive")
        if not self.identity or not all(0 <= e < n for e in self.identity):
            raise AtomStructureError("bad identity atom set")
        for t in triples:
            if not all(0 <= i < n for i in t):
                raise AtomStructureError(f"triple out of range: {t}")
            # a set is closed under both cycle maps exactly when it contains
            # the orbit of each of its members
            x, y, z = t
            if (conv[x], z, y) not in triples or (z, conv[y], x) not in triples:
                raise AtomStructureError(f"triples not cycle-closed at {t}")

    @classmethod
    def _closed(cls, atom_names, conv, identity, triples, label="") -> AtomStructure:
        """A structure built without any check.  The caller guarantees what
        the constructor would check: that the converse and identity passed
        it, as in a structure already built on them, and that the triples
        are in range and cycle-closed, such as a union of sets already
        validated on this converse."""
        s = object.__new__(cls)
        s.__dict__.update(
            atom_names=atom_names, conv=conv, identity=identity, triples=triples, label=label
        )
        return s

    @property
    def n_atoms(self) -> int:
        return len(self.atom_names)

    @property
    def n_elements(self) -> int:
        return 1 << self.n_atoms

    @property
    def top(self) -> int:
        return self.n_elements - 1

    @property
    def ident(self) -> int:
        return sum(1 << e for e in self.identity)

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Element-level composition and converse tables (bitmask indexed)."""
        n = self.n_atoms
        if n > 12:
            raise AtomStructureError(
                f"dense element tables need 4**{n} entries; {n} atoms is too many"
            )
        atom_comp = np.zeros((n, n), dtype=np.int64)
        for x, y, z in self.triples:
            atom_comp[x, y] |= 1 << z
        # x ; y is the union over the atoms of y, then over the atoms of x
        comp = _union_table(_union_table(atom_comp.T).T)
        cv = _union_table(np.left_shift(1, self.conv, dtype=np.int64))
        return comp, cv

    @cached_property
    def functional_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The functional elements fns (conv(x);x below the identity),
        increasing, and the table t[i, j] = conv(fns[i]);fns[j] of their
        products, in one gather.  Built once per structure: the tabular
        witnesses of represent read it at every composition extension.
        model.verdicts checks model.functional on every element in one
        block: the tables stop at 12 atoms, whose 2**12 elements are
        exactly model.BLOCK."""
        comp, conv = self.tables
        xs = np.arange(self.n_elements)
        (guard,) = model.functional(terms.Var("e"))
        ok = model.verdicts(self.handle(), guard, ["e"], model._grids([xs]))
        fns = xs[np.array(ok, dtype=bool)]
        return fns, comp[conv[fns][:, None], fns]

    # element operations (elements are ints)

    def compl(self, x: int) -> int:
        return x ^ self.top

    def leq(self, x: int, y: int) -> bool:
        return (x & y) == x

    def elements(self) -> list[int]:
        return list(range(self.n_elements))

    def format_element(self, x: int) -> str:
        if x == 0:
            return "0"
        return "+".join(self.atom_names[i] for i in range(self.n_atoms) if x >> i & 1)

    def parse_element(self, text: str) -> int:
        """Accept an atom-name sum like `a+b~`, a list of atom indices like
        `1,3`, or a bare bitmask integer."""
        text = text.strip()
        if text.isdecimal():
            v = int(text)
            if v >= self.n_elements:
                raise AtomStructureError(f"bitmask {v} out of range")
            return v
        mask = 0
        for part in text.replace("+", ",").split(","):
            part = part.strip()
            if part.isdecimal():
                i = int(part)
                if i >= self.n_atoms:
                    raise AtomStructureError(f"atom index {i} out of range")
            else:
                try:
                    i = self.atom_names.index(part)
                except ValueError:
                    raise AtomStructureError(f"unknown atom {part!r}") from None
            mask |= 1 << i
        return mask

    def handle(self) -> model.ModelHandle:
        """Model handle of the induced algebra.

        Elements are atom-set bitmasks, so meet, join and complement are bit
        operations and composition and converse are gathers from `tables`;
        every operation takes ints or, elementwise, int64 arrays of elements.
        The dense tables are built on the first composition or converse, so
        a term without either never pays for their 4**n entries.
        """

        def gather(which):
            def op(*index):
                out = self.tables[which][index]
                return out if isinstance(out, np.ndarray) else int(out)

            return op

        return model.ModelHandle(
            name=self.label or "finra",
            meet=lambda x, y: x & y,
            comp=gather(0),
            conv=gather(1),
            zero=0,
            top=self.top,
            ident=self.ident,
            equal=lambda x, y: x == y,
            leq=self.leq,
            join=lambda x, y: x | y,
            compl=self.compl,
            elements=self.elements,
            sample_pool=self.elements,
            format_element=self.format_element,
            atoms=lambda: [1 << i for i in range(self.n_atoms)],
        )


def from_cycles(
    atom_names, conv, identity, cycles, label: str = ""
) -> AtomStructure:
    """Build a structure from representative triples: the union of their
    cycles."""
    conv = tuple(conv)
    return AtomStructure(
        atom_names=tuple(atom_names),
        conv=conv,
        identity=frozenset(identity),
        triples=frozenset().union(*(peirce_orbit(tuple(t), conv) for t in cycles)),
        label=label,
    )


# The relation algebra axioms that tables does not make true by itself.
AXIOM_LAWS = (
    "jax-comp-assoc", "jax-identity", "p5", "jax-conv-invol", "jax-conv-comp", "p8"
)


def verify_axioms(s: AtomStructure) -> bool:
    """Whether the induced finite algebra is a relation algebra.

    tables builds the Boolean algebra of atom sets with a completely
    additive composition and converse, so the Boolean axioms and the
    additivity of both operators hold by construction.  What remains is
    checked as the catalog laws in AXIOM_LAWS, over every element or, where
    model.reducible allows, every atom: associativity, the identity on both
    sides (jax-identity and p5), that converse is an involution and reverses
    composition, and the cycle law in its Dedekind form p8, which is
    equivalent to it once composition is additive and converse is an
    involution that reverses composition.
    """
    m = s.handle()

    def holds(law):
        return model.search(m, law, model.Exhaustive(), model.reducible(law))[1] is None

    return all(holds(laws.law_by_id(law_id)) for law_id in AXIOM_LAWS)


def make_proper_ra(n: int) -> AtomStructure:
    """The algebra of all relations on an n-point set, as an atom structure
    whose atoms are the ordered pairs."""
    if not 1 <= n <= 4:
        raise ValueError("point count out of range (1..4)")
    pairs = list(itertools.product(range(n), repeat=2))
    index = {p: i for i, p in enumerate(pairs)}
    names = tuple(f"p{i}{j}" for i, j in pairs)
    conv = tuple(index[(j, i)] for i, j in pairs)
    identity = frozenset(index[(i, i)] for i in range(n))
    triples = frozenset(
        (index[(i, j)], index[(j, k)], index[(i, k)])
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )
    return AtomStructure(names, conv, identity, triples, label=f"Re({n})")


# --- text file format -----------------------------------------------------


def format_structure(s: AtomStructure) -> str:
    lines = [
        f"atoms={s.n_atoms} "
        f"identity={','.join(str(i) for i in sorted(s.identity))} "
        f"converse={','.join(str(c) for c in s.conv)}"
    ]
    done: set[Triple] = set()
    for t in sorted(s.triples):
        if t in done:
            continue
        done |= peirce_orbit(t, s.conv)
        lines.append(f"cycle {t[0]} {t[1]} {t[2]}")
    return "\n".join(lines) + "\n"


def parse_structure(text: str, label: str = "") -> AtomStructure:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("atoms="):
        raise AtomStructureError("missing atoms= header line")
    header: dict[str, str] = {}
    for fieldspec in lines[0].split():
        key, eq, value = fieldspec.partition("=")
        if key in header:
            raise AtomStructureError(f"repeated header field {key!r}")
        if key not in ("atoms", "identity", "converse") or not eq:
            raise AtomStructureError(f"unknown or valueless header field {fieldspec!r}")
        header[key] = value
    try:
        atoms, ids, conv = (header[k].split(",") for k in ("atoms", "identity", "converse"))
    except KeyError as exc:
        raise AtomStructureError(f"bad header: missing field {exc}") from None
    if len(atoms) > 1 or not all(p.isascii() and p.isdigit() for p in atoms + ids + conv):
        raise AtomStructureError(f"bad header: expected unsigned numbers in {lines[0]!r}")
    n, identity, conv = int(atoms[0]), frozenset(map(int, ids)), tuple(map(int, conv))
    if len(identity) < len(ids):
        raise AtomStructureError(f"repeated identity index in {header['identity']!r}")
    if len(conv) != n or not all(0 <= c < n for c in conv):
        raise AtomStructureError(
            f"converse must map each of the {n} atoms into 0..{n - 1}"
        )
    cycles = []
    for ln in lines[1:]:
        parts = ln.split()
        numeric = all(p.isascii() and p.isdigit() for p in parts[1:])
        if parts[0] != "cycle" or len(parts) != 4 or not numeric:
            raise AtomStructureError(f"bad cycle line: {ln!r}")
        cycle = tuple(int(p) for p in parts[1:])
        if max(cycle) >= n:
            raise AtomStructureError(f"cycle atom out of range 0..{n - 1}: {ln!r}")
        cycles.append(cycle)
    names = tuple(_default_names(n, conv, identity))
    return from_cycles(names, conv, identity, cycles, label=label)


def _default_names(n, conv, identity):
    names = [""] * n
    letters = iter(string.ascii_lowercase)
    for i in range(n):
        if i in identity:
            names[i] = "1'" if len(identity) == 1 else f"e{i}"
        elif not names[i]:
            ch = next(letters, None)
            if ch is None:
                raise AtomStructureError("more than 26 diversity letters needed")
            names[i] = ch
            if conv[i] != i and conv[i] not in identity:
                names[conv[i]] = ch + "~"
    return names

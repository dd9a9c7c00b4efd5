"""Checks of the three product-decomposition formulas.

Every check runs the J, L and M laws of the catalog through the block
evaluator in model.search, on the structure's one model handle; the
guarded nine-variable implication is the catalog law K, which
`check-law K --model FILE` checks.  The published failure counts for the
formulas quantify their variables over the atoms of each structure; that is
the default mode here.  Element-level quantification is strictly stronger
for J (one structure over three symmetric atoms witnesses the difference)
and is available as mode="elements".  It is the same exhaustive search with
only the variables model.reducible admits ranging over atoms: every
variable except a and b of J, so for L and M the element mode is the atom
mode.  `check-law ID --model FILE` checks any of the four laws on seeded
random assignments; element mode finds every failure those find.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import model
from ..laws import law_by_id
from .atoms import AtomStructure

FORMULAS = ("J", "L", "M")

PROFILE_COLUMNS = (
    ("J", "L", "M"),
    ("J", "L"),
    ("J", "M"),
    ("L", "M"),
    ("J",),
    ("L",),
    ("M",),
    (),
)
PROFILE_NAMES = tuple("".join(c) or "none" for c in PROFILE_COLUMNS)


@dataclass
class JlmRecord:
    label: str
    mode: str
    failures: dict[str, dict[str, int] | None] = field(default_factory=dict)

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(f for f in FORMULAS if self.failures.get(f) is not None)

    def line(self) -> str:
        cols = " ".join(
            f"{f}={'fail' if self.failures.get(f) is not None else 'pass'}"
            for f in FORMULAS
        )
        return f"JLM {self.label} mode={self.mode} {cols}"


def check_jlm(s: AtomStructure, mode: str = "atoms") -> JlmRecord:
    """Which of the three formulas fail in the structure; each failure is
    recorded as its first violating assignment {variable: bitmask}.

    mode="atoms" quantifies over atoms (the published-table convention);
    mode="elements" over all elements of the induced algebra.  Both modes
    need the dense element tables, so at most 12 atoms.
    """
    if mode not in ("atoms", "elements"):
        raise ValueError(f"unknown mode {mode!r}")
    rec = JlmRecord(label=s.label or "ra", mode=mode)
    m = s.handle()
    for f in FORMULAS:
        law = law_by_id(f)
        on_atoms = (
            law.quantified_variables(m) if mode == "atoms" else model.reducible(law)
        )
        found = model.search(m, law, model.Exhaustive(), atom_vars=on_atoms)
        rec.failures[f] = found[1]
    return rec


def count_profile(records) -> tuple[int, ...]:
    """Failure profile of JLM records: counts per failure set, in the
    published column order JLM, JL, JM, LM, J, L, M, none."""
    buckets: dict[tuple[str, ...], int] = {c: 0 for c in PROFILE_COLUMNS}
    for rec in records:
        buckets[rec.failed] += 1
    return tuple(buckets[c] for c in PROFILE_COLUMNS)


def profile_line(profile: tuple[int, ...]) -> str:
    return " ".join(f"fail:{c}={v}" for c, v in zip(PROFILE_NAMES, profile))


def profile_structures(structures, mode: str = "atoms") -> tuple[int, ...]:
    """Failure profile of `check_jlm` over a list of structures."""
    return count_profile(check_jlm(s, mode=mode) for s in structures)


def profile_tsv(signature: str, total: int, profile: tuple[int, ...]) -> str:
    """One signature's profile as a TSV header and row."""
    head = "signature\ttotal\t" + "\t".join("fail:" + c for c in PROFILE_NAMES)
    row = f"{signature}\t{total}\t" + "\t".join(str(v) for v in profile)
    return f"{head}\n{row}\n"

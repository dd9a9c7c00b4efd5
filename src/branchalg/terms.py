"""Abstract syntax, parser, and printer for algebraic terms.

Terms are built from the constants 0, 1, id, the two generators a and b,
named variables, and the operations ; (relative product), & (intersection),
conv (converse), + (union), and -(x) (complement).  Union and complement are
only meaningful in full relation algebras; the parser can reject them when a
caller works in the smaller signature.

Each operator is declared once, in the tables after the node classes: its
spelling, its binding strength, and whether the J signature has it.  The
parser, the printer, the DOT labels and the model term compiler all read
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import UsageError


class TermError(UsageError):
    pass


class TermSyntaxError(TermError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class RaOnlyOperatorError(TermError):
    """Union or complement used where only the smaller signature is allowed."""

    def __init__(self, op: str, pos: int | None = None):
        where = "" if pos is None else f" (at position {pos})"
        super().__init__(f"operator {op!r} is not available in the J signature{where}")
        self.op = op
        self.pos = pos


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Zero(Term):
    pass


@dataclass(frozen=True, slots=True)
class Top(Term):
    pass


@dataclass(frozen=True, slots=True)
class Id(Term):
    pass


@dataclass(frozen=True, slots=True)
class GenA(Term):
    pass


@dataclass(frozen=True, slots=True)
class GenB(Term):
    pass


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Conv(Term):
    child: Term


@dataclass(frozen=True, slots=True)
class Comp(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Compl(Term):
    child: Term


ZERO = Zero()
TOP = Top()
ID = Id()
A = GenA()
B = GenB()


_BINARY = frozenset((Comp, Meet, Join))
_UNARY = frozenset((Conv, Compl))
_RA_ONLY = (Join, Compl)  # the operators a J-term may not use
_ATOMS = {"a": A, "b": B, "id": ID, "0": ZERO, "1": TOP}
_LEAVES = {type(t): word for word, t in _ATOMS.items()}
_PREFIX = {"conv": Conv, "-": Compl}
# symbol and binding strength of each infix operator, loosest first
_INFIX = {Join: ("+", 1), Meet: ("&", 2), Comp: (";", 3)}
_INFIX_BY_SYMBOL = {sym: (cls, s) for cls, (sym, s) in _INFIX.items()}
_PREFIX_WORDS = {cls: word for word, cls in _PREFIX.items()}


def subterms(t: Term):
    """Every node of a term in preorder, left before right, each occurrence
    of a repeated subterm included; walked without recursion.

    The node classes are final, so the walk looks up the exact class, which
    is cheaper than isinstance against a tuple.
    """
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        cls = type(t)
        if cls in _BINARY:
            stack += (t.right, t.left)
        elif cls in _UNARY:
            stack.append(t.child)


def free_vars(t: Term) -> set[str]:
    return {u.name for u in subterms(t) if isinstance(u, Var)}


def mentions_generators(t: Term) -> bool:
    return any(isinstance(u, (GenA, GenB)) for u in subterms(t))


def is_j_term(t: Term) -> bool:
    """True when the term avoids union and complement."""
    return not any(isinstance(u, _RA_ONLY) for u in subterms(t))


# --- constructors the generators and the catalog laws are built with


def comp(*factors: Term) -> Term:
    """Left-associated relative product with identity factors dropped."""
    out: Term | None = None
    for f in factors:
        if isinstance(f, Id):
            continue
        if out is None:
            out = f
        elif isinstance(f, Comp):
            # keep the left-associated spine flat
            out = Comp(comp(out, f.left), f.right)
        else:
            out = Comp(out, f)
    return ID if out is None else out


def meet(*parts: Term) -> Term:
    out: Term | None = None
    for p in parts:
        out = p if out is None else Meet(out, p)
    if out is None:
        raise ValueError("meet of no terms")
    return out


def conv(t: Term) -> Term:
    """Converse with the operation pushed through products and meets.

    Produces the flattened forms used throughout: conv of a;b comes out as
    conv(b);conv(a), double converses cancel.
    """
    if isinstance(t, (Zero, Top, Id)):
        return t
    if isinstance(t, Conv):
        return t.child
    if isinstance(t, Comp):
        return comp(conv(t.right), conv(t.left))
    if isinstance(t, Meet):
        return Meet(conv(t.left), conv(t.right))
    if isinstance(t, Join):
        return Join(conv(t.left), conv(t.right))
    return Conv(t)


# --- parsing ------------------------------------------------------------

# deepest tree and parenthesis nesting parse_term accepts; the parser, printer
# and evaluators recurse per level and stay far inside Python's limit
MAX_DEPTH = 100


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise TermSyntaxError(f"expected {ch!r}", self.pos)

    def ident(self) -> str | None:
        self.skip_ws()
        i = self.pos
        text = self.text
        if i < len(text) and (text[i].isalpha() or text[i] == "_"):
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.pos = j
            return text[i:j]
        return None


def parse_term(text: str, signature: str = "RA") -> Term:
    """Parse the ASCII term grammar.

    With signature="J" the union and complement operators are rejected with
    RaOnlyOperatorError.  A term deeper than MAX_DEPTH is rejected with
    TermSyntaxError.
    """
    if signature not in ("RA", "J"):
        raise ValueError(f"unknown signature {signature!r}")
    sc = _Scanner(text)
    t = _parse_infix(sc, signature)
    sc.skip_ws()
    if sc.pos != len(text):
        raise TermSyntaxError("trailing input", sc.pos)
    # each level spells at least one character: only long texts can be deep
    if len(text) > MAX_DEPTH and _height(t) > MAX_DEPTH:
        raise TermSyntaxError(f"term nested deeper than {MAX_DEPTH} levels", 0)
    return t


def _height(t: Term) -> int:
    """Levels of the syntax tree, counted without recursion."""
    out, stack = 0, [(t, 1)]
    while stack:
        t, h = stack.pop()
        out = max(out, h)
        cls = type(t)
        if cls in _UNARY:
            stack.append((t.child, h + 1))
        elif cls in _BINARY:
            stack += [(t.left, h + 1), (t.right, h + 1)]
    return out


def _parse_infix(sc: _Scanner, sig: str, strength: int = 1) -> Term:
    """Left-associated chain of operators binding at least as tightly as
    strength; each right operand binds one level tighter than its operator."""
    t = _parse_unary(sc, sig)
    while True:
        sym = sc.peek()
        cls, s = _INFIX_BY_SYMBOL.get(sym, (None, 0))
        if s < strength:
            return t
        pos = sc.pos
        sc.pos += 1
        if sig == "J" and cls in _RA_ONLY:
            raise RaOnlyOperatorError(sym, pos)
        t = cls(t, _parse_infix(sc, sig, s + 1))


def _parse_unary(sc: _Scanner, sig: str) -> Term:
    c = sc.peek()
    if c == "(":
        return _parse_group(sc, sig)
    pos = sc.pos
    word = sc.ident()
    if word is None:
        # the one-character atoms and prefix operators
        if c not in _ATOMS and c not in _PREFIX:
            raise TermSyntaxError("expected a term", pos)
        word = c
        sc.pos += 1
    if word in _ATOMS:
        return _ATOMS[word]
    cls = _PREFIX.get(word)
    if cls is None:
        return Var(word)
    if sig == "J" and cls in _RA_ONLY:
        raise RaOnlyOperatorError(word, pos)
    return cls(_parse_group(sc, sig))


def _parse_group(sc: _Scanner, sig: str) -> Term:
    """A parenthesised sum, at most MAX_DEPTH groups deep."""
    sc.expect("(")
    sc.depth += 1
    if sc.depth > MAX_DEPTH:
        raise TermSyntaxError(f"term nested deeper than {MAX_DEPTH} levels", sc.pos)
    t = _parse_infix(sc, sig)
    sc.expect(")")
    sc.depth -= 1
    return t


# --- printing -----------------------------------------------------------

def format_term(t: Term) -> str:
    """Print a term so that parse_term(format_term(t)) == t structurally."""
    return _fmt(t, 0)


def _fmt(t: Term, ctx: int) -> str:
    """t printed inside an operator of binding strength ctx."""
    cls = type(t)
    if cls is Var:
        return t.name
    if cls in _LEAVES:
        return _LEAVES[cls]
    if cls in _UNARY:
        return f"{_PREFIX_WORDS[cls]}({_fmt(t.child, 0)})"
    sym, s = _INFIX[cls]
    sep = sym if sym == ";" else f" {sym} "
    text = f"{_fmt(t.left, s)}{sep}{_fmt(t.right, s + 1)}"
    return f"({text})" if ctx > s else text


# --- series-parallel diagrams -------------------------------------------


def emit_dot(t: Term) -> str:
    """Render a union-free term as a DOT digraph.

    Relative products are drawn in series, intersections in parallel,
    converses of edge atoms as reversed edges; identity segments collapse
    their endpoints into a shared node.
    """
    if not is_j_term(t):
        raise RaOnlyOperatorError("+/-")
    parent = [0, 1]  # a union-find forest over the nodes: source 0, sink 1
    edges: list[tuple[int, int, str]] = []
    _dot_walk(t, 0, 1, parent, edges)
    names: dict[int, str] = {}

    def name(i: int) -> str:
        r = _find(parent, i)
        if r not in names:
            names[r] = f"n{len(names)}"
        return names[r]

    lines = ["digraph term {", "  rankdir=LR;", '  node [shape=point label=""];']
    name(0)
    for s, d, lab in edges:
        lines.append(f'  {name(s)} -> {name(d)} [label="{lab}"];')
    name(1)
    lines.append("}")
    return "\n".join(lines)


def _dot_walk(t: Term, s: int, d: int, parent: list[int], edges: list):
    """Draw t between nodes s and d: a product through a fresh middle node,
    a meet as two parallel drawings, an identity by merging s and d, and
    anything else as an edge (s, d, label).  The converse of a variable or
    generator is its edge reversed; any other converse is pushed one level
    in by `conv` and drawn between the same nodes.

    A module function, not a closure in emit_dot: a recursive closure
    refers to itself through its cell, a reference cycle that only the
    cyclic garbage collector frees."""
    if isinstance(t, Comp):
        m = len(parent)
        parent.append(m)
        _dot_walk(t.left, s, m, parent, edges)
        _dot_walk(t.right, m, d, parent, edges)
    elif isinstance(t, Meet):
        _dot_walk(t.left, s, d, parent, edges)
        _dot_walk(t.right, s, d, parent, edges)
    elif isinstance(t, Id):
        i, j = _find(parent, s), _find(parent, d)
        if i != j:
            parent[max(i, j)] = min(i, j)
    elif isinstance(t, Conv) and isinstance(t.child, (Var, GenA, GenB)):
        edges.append((d, s, _edge_label(t.child)))
    elif isinstance(t, Conv):
        _dot_walk(conv(t.child), s, d, parent, edges)
    else:
        edges.append((s, d, _edge_label(t)))


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _edge_label(t: Term) -> str:
    return t.name if isinstance(t, Var) else _LEAVES[type(t)]


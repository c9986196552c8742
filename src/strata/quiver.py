"""Finite acyclic quivers: the combinatorial base of every representation.

Vertices are numbered 1..n and carry stable string labels, so deleting a
vertex (perpendicular reduction) keeps the survivors' external identities.
Parallel arrows are allowed, oriented cycles are rejected at construction
time (the path algebra must be finite dimensional). This module also owns
the quiver text format used by the CLI:

    # comment lines and blank lines are ignored
    field Q            (or: field Fp 5; defaults to Q when absent)
    vertices 3
    arrow a 1 2
    arrow b 2 3

Everything after the quiver header, from the first line reading `rep`
onwards, describes representations; parsing those blocks belongs to the
representation layer, so `parse_quiver_text` hands them back untouched.

`topological_sort` is the one ordering routine: the cycle check and the
vertex order of a quiver both come from it.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field as dataclass_field

from .exactlin import Field, GF, QQ, _Frozen, _slot_writers


class ParseError(ValueError):
    """Input text error; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


def topological_sort(count: int, edges):
    """Kahn's algorithm on vertices 0..count-1, smallest ready vertex first.

    edges is a multiset of (source, target) pairs. The order is the
    lexicographically smallest topological one; it is shorter than count
    exactly when the graph has a cycle.
    """
    indeg = [0] * count
    out = [[] for _ in range(count)]
    for a, b in edges:
        indeg[b] += 1
        out[a].append(b)
    ready = [v for v in range(count) if indeg[v] == 0]
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order


def _label_key(label: str):
    # numeric labels compare numerically so "10" sorts after "2"
    return (0, int(label), "") if label.isdigit() else (1, 0, label)


@dataclass(init=False, repr=False, slots=True)
class Quiver(_Frozen):
    """A finite acyclic quiver with named arrows and labeled vertices.

    The topological order found while rejecting cycles is kept; it is
    derived from the arrows, so equality and hashing ignore it. The hash
    is computed over the vertex count, arrows and labels on first use and
    cached in the `_h` slot, because every `Rep` hash reads it; like
    `_order`, `_h` takes no part in `==` or `repr`. `==` answers at once
    when both sides are the same object, and otherwise compares the three
    fields, so separately built quivers with the same arrows and labels
    are equal.
    """

    n: int
    arrows: tuple
    labels: tuple
    _order: tuple = dataclass_field(compare=False)
    _h: int | None = dataclass_field(default=None, compare=False)

    def __init__(self, n: int, arrows=(), labels=None):
        if n < 0:
            raise ValueError("negative vertex count")
        arrows = tuple(
            a if isinstance(a, Arrow) else Arrow(str(a[0]), int(a[1]), int(a[2]))
            for a in arrows
        )
        names = set()
        for a in arrows:
            if not (1 <= a.source <= n and 1 <= a.target <= n):
                raise ValueError(f"arrow {a.name}: endpoints outside 1..{n}")
            if a.source == a.target:
                raise ValueError(f"arrow {a.name} is a loop; quiver must be acyclic")
            if a.name in names:
                raise ValueError(f"duplicate arrow name {a.name!r}")
            names.add(a.name)
        if labels is None:
            labels = tuple(str(v) for v in range(1, n + 1))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError("label count differs from vertex count")
            if len(set(labels)) != n:
                raise ValueError("vertex labels must be distinct")
        order = topological_sort(n, [(a.source - 1, a.target - 1) for a in arrows])
        if len(order) != n:
            raise ValueError("quiver has an oriented cycle")
        _set_n(self, n)
        _set_arrows(self, arrows)
        _set_labels(self, labels)
        _set_order(self, tuple(v + 1 for v in order))
        _set_h(self, None)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Quiver:
            return NotImplemented
        return (self.n, self.arrows, self.labels) == (other.n, other.arrows, other.labels)

    def __hash__(self):
        h = self._h
        if h is None:
            h = hash((self.n, self.arrows, self.labels))
            _set_h(self, h)
        return h

    def __repr__(self):
        arr = ", ".join(f"{a.name}:{a.source}->{a.target}" for a in self.arrows)
        return f"Quiver({self.n} vertices; {arr or 'no arrows'})"

    def vertices(self):
        return range(1, self.n + 1)

    def label(self, v: int) -> str:
        return self.labels[v - 1]

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(f"no arrow named {name!r}")

    def euler_form(self, d, e) -> int:
        """<d, e> = sum_v d_v e_v - sum_{a: u->w} d_u e_w.

        Equals dim Hom(M, N) - dim Ext^1(M, N) for reps with dimension
        vectors d and e; the hereditary Euler form of the path algebra.
        d and e are sequences (tuples or lists), read in place.
        """
        if len(d) != self.n or len(e) != self.n:
            raise ValueError(
                f"dimension vectors must have length {self.n}, got {len(d)} and {len(e)}"
            )
        total = sum(map(operator.mul, d, e))
        for a in self.arrows:
            total -= d[a.source - 1] * e[a.target - 1]
        return total

    def sinks(self):
        """Vertices with no outgoing arrows; nonempty whenever n >= 1."""
        out = set(a.source for a in self.arrows)
        return tuple(v for v in self.vertices() if v not in out)

    def smallest_labeled_sink(self) -> int:
        return min(self.sinks(), key=lambda v: _label_key(self.label(v)))

    def delete_vertex(self, v: int) -> "Quiver":
        """Induced subquiver on the other vertices; labels are inherited."""
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        renum = {}
        labels = []
        for w in self.vertices():
            if w != v:
                renum[w] = len(renum) + 1
                labels.append(self.label(w))
        arrows = [
            Arrow(a.name, renum[a.source], renum[a.target])
            for a in self.arrows
            if a.source != v and a.target != v
        ]
        return Quiver(self.n - 1, arrows, labels)

    def topological_order(self):
        return self._order

    def path_counts_from(self, v: int):
        """Number of paths v ~> w for every w (trivial path included)."""
        counts = [0] * (self.n + 1)
        counts[v] = 1
        for u in self.topological_order():
            if counts[u] == 0:
                continue
            for a in self.arrows:
                if a.source == u:
                    counts[a.target] += counts[u]
        return tuple(counts[1:])

    def canonical_text(self, field: Field | None = None) -> str:
        """Normalized text form; used for hashing and golden output."""
        lines = []
        if field is not None:
            lines.append("field Q" if field.is_rational else f"field Fp {field.characteristic}")
        lines.append(f"vertices {self.n}")
        if self.labels != tuple(str(v) for v in self.vertices()):
            lines.append("labels " + " ".join(self.labels))
        for a in self.arrows:
            lines.append(f"arrow {a.name} {a.source} {a.target}")
        return "\n".join(lines) + "\n"

    def describe(self) -> dict:
        return {
            "vertices": self.n,
            "labels": list(self.labels),
            "arrows": [[a.name, a.source, a.target] for a in self.arrows],
        }


_set_n, _set_arrows, _set_labels, _set_order, _set_h = _slot_writers(
    Quiver, "n", "arrows", "labels", "_order", "_h"
)


def linear_quiver(n: int) -> Quiver:
    """The equioriented A_n quiver 1 -> 2 -> ... -> n."""
    names = [f"a{i}" for i in range(1, n)]
    return Quiver(n, [Arrow(names[i - 1], i, i + 1) for i in range(1, n)])


def kronecker_quiver(arrow_count: int = 2) -> Quiver:
    """Two vertices with parallel arrows 1 -> 2 (default: the Kronecker quiver)."""
    return Quiver(2, [Arrow(chr(ord("a") + i), 1, 2) for i in range(arrow_count)])


def parse_quiver_text(text: str):
    """Parse the quiver header of an input file.

    Returns (field, quiver, rep_lines) where rep_lines is the raw tail of
    the file starting at the first `rep` line, as (line_number, tokens)
    pairs for the representation parser. Quiver's checks run on every
    `labels` and `arrow` line, so a cycle is reported at the arrow that
    closes it.
    """
    field = None
    n = None
    labels = None
    arrows = []
    rep_lines = []
    in_reps = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if in_reps:
            rep_lines.append((lineno, tok))
            continue
        kw = tok[0]
        if kw == "field":
            if field is not None:
                raise ParseError("duplicate field line", lineno)
            if tok[1:] == ["Q"]:
                field = QQ
            elif len(tok) == 3 and tok[1] == "Fp":
                try:
                    field = GF(int(tok[2]))
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
            else:
                raise ParseError(f"bad field line {line!r}; want 'field Q' or 'field Fp <p>'", lineno)
        elif kw == "vertices":
            if n is not None:
                raise ParseError("duplicate vertices line", lineno)
            if len(tok) != 2 or not tok[1].isdigit():
                raise ParseError("want 'vertices <n>'", lineno)
            n = int(tok[1])
            if n < 1:
                raise ParseError("vertex count must be at least 1", lineno)
        elif kw == "labels":
            if n is None:
                raise ParseError("labels before vertices", lineno)
            if labels is not None:
                raise ParseError("duplicate labels line", lineno)
            labels = tok[1:]
        elif kw == "arrow":
            if n is None:
                raise ParseError("arrow before vertices", lineno)
            if len(tok) != 4:
                raise ParseError("want 'arrow <name> <source> <target>'", lineno)
            try:
                arrows.append(Arrow(tok[1], int(tok[2]), int(tok[3])))
            except ValueError:
                raise ParseError("arrow endpoints must be integers", lineno) from None
        elif kw == "rep":
            in_reps = True
            rep_lines.append((lineno, tok))
        else:
            raise ParseError(f"unknown directive {kw!r}", lineno)
        if kw in ("labels", "arrow"):
            try:
                Quiver(n, arrows, labels)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
    if n is None:
        raise ParseError("input has no vertices line", 1)
    if field is None:
        field = QQ
    return field, Quiver(n, arrows, labels), rep_lines

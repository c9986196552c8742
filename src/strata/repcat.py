"""Representations of an acyclic quiver and their exact homological algebra.

A representation assigns a finite dimensional space to every vertex and a
matrix to every arrow (shapes follow the left-module convention: an arrow
a: u -> w gets a dims[w] x dims[u] matrix). Hom spaces and first extension
groups both come from one linear system: the map

    Phi: (f_v)_v  ->  (f_w M_a - N_a f_u)_{a: u -> w}

has kernel Hom(M, N) and cokernel Ext^1(M, N); the path algebra of an
acyclic quiver is hereditary, so there is nothing past Ext^1. Phi is
assembled straight from the nonzero entries of the arrow matrices as
sparse integer rows and eliminated by the same `exactlin._reduce` that
`Mat` uses; no dense matrix of Phi is built. The rank of Phi answers Hom
and Ext^1 dimensions, orthogonality and exceptionality alike, so it is
memoized per pair (M, N) and kept for the life of the process, as `perpcat`
keeps `perp_algebra` and `transport_into_perp`; a sweep that asks each pair
once calls the unmemoized `_hom_system_rank` instead. A cocycle
basis of Ext^1 gives extensions explicitly, and stacking all of them gives
the universal extension that the mutations of `exceptional` and the
Bongartz complements of `perpcat` are built from. The kernel and cokernel
of a map are read off one reduced echelon form per vertex: the kernel basis
of f_v, and the left-kernel basis of f_v read off its transpose. That the
kernel is a subrepresentation is checked only at the pivot rows of its
basis, the one place the check can fail.

`Rep` and `RepMap` are frozen dataclasses: immutable, compared and hashed
by content, so they serve as memo keys. `RepMap(...)` checks shapes and
that every arrow square commutes; the operations here build morphisms by
construction (Hom kernel vectors, composites, linear combinations,
identities, polynomials in an endomorphism) without checking them again.

Decomposition splits along coprime factors of minimal polynomials of
endomorphisms and never guesses. A part of total dimension 1 is a leaf
with no Hom system built, its End being the field. Any other node of the
split is a leaf as soon as the reduced Hom system of (M, M) shows
dim End = 1; only other nodes read a basis of End off that same echelon
form, and they make its maps on demand: the search tries them in order,
one at a time, and usually the first one splits the node, so the rest are
never made. Only when no basis map splits are the seeded random
combinations and the certificates below handed the full basis. A minimal
polynomial is the first linear relation among the powers of an
endomorphism, found by one incremental reduction that stops at the
minimal degree. A module is reported indecomposable only when its
endomorphism ring is shown to be local: a nilpotent two-sided ideal R is
exhibited with End/R of dimension 1, or of dimension deg f for an
irreducible f whose power f^e is the minimal polynomial of some
endomorphism theta met in the split search (then k[theta] fills End/R,
which is a field). When no endomorphism splits and no certificate holds,
a right identity of a left ideal {e : e phi = 0} of End, for phi a unit
vector of some M_v or a map from a summand split off elsewhere, is a
splitting idempotent if one exists, and over a small prime field an
exhaustive search of at most 2^20 elements settles the rest; `decompose`
raises UndecidedError otherwise.

Minimal polynomials of degree 1 and 2 are factored here exactly: over Q
through the discriminant, over a small prime field by root search. sympy
is imported only for the rest (degree 3 and more, or a quadratic over a
large prime field), so importing this module does not load it.

A rigid module lies in the additive closure of known pairwise
Ext-orthogonal summands exactly when its dimension vector is a nonnegative
integer combination of theirs (`_in_add`), so `perpcat` and the tilting
certificate of `exceptional` place modules there without decomposing them.
The summands they do decompose, of T and of a Bongartz complement, must
pass three dimension-vector conditions that every rigid module meets
(`_check_summand_dims`).
A module E is shown to be X^m by one Hom(X, E) system (`_isotypic`): its
m basis maps assemble into a map X^m -> E bijective at every vertex.

Isomorphism is decided by Krull-Schmidt: decompose both sides and match
indecomposable summands, which is exact because their endomorphism rings
are local.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cache, reduce

from .exactlin import (
    QQ,
    Field,
    Mat,
    _as_index,
    _cleared,
    _first_relation,
    _Frozen,
    _kernel_vectors,
    _make_primitive,
    _reduce,
    _slot_writers,
)
from .quiver import ParseError, Quiver


class UndecidedError(RuntimeError):
    """Indecomposability could be neither refuted nor certified."""


@dataclass(init=False, repr=False, slots=True)
class Rep(_Frozen):
    """A representation of a fixed quiver over a fixed field.

    The hash is computed over every arrow matrix on first use and cached in
    the `_h` slot, because `_hom_rank` and the memos of `perpcat` look the
    same modules up many times. `_h` is derived from the four fields, so it
    takes no part in `==` or `repr`: two equal modules built separately
    compare equal whether or not either has been hashed yet.
    """

    quiver: Quiver
    field: Field
    dims: tuple
    maps: tuple
    _h: int | None = dataclass_field(default=None, compare=False)

    def __init__(self, quiver: Quiver, field: Field, dims, maps):
        dims = tuple([d if type(d) is int else _as_index(d, "dimension") for d in dims])
        if len(dims) != quiver.n:
            raise ValueError(f"expected {quiver.n} dimensions, got {len(dims)}")
        if any(d < 0 for d in dims):
            raise ValueError("negative dimension in dimension vector")
        if isinstance(maps, dict):
            missing = [a.name for a in quiver.arrows if a.name not in maps]
            if missing:
                raise ValueError(f"missing matrices for arrows {missing}")
            maps = tuple(maps[a.name] for a in quiver.arrows)
        else:
            maps = tuple(maps)
            if len(maps) != len(quiver.arrows):
                raise ValueError(
                    f"expected {len(quiver.arrows)} arrow matrices, got {len(maps)}"
                )
        for a, m in zip(quiver.arrows, maps):
            if m.field is not field and m.field != field:
                raise ValueError(f"matrix for arrow {a.name} is over the wrong field")
            rows, cols = dims[a.target - 1], dims[a.source - 1]
            if m.rows != rows or m.cols != cols:
                raise ValueError(
                    f"matrix for arrow {a.name} has shape {m.rows}x{m.cols}, "
                    f"want {rows}x{cols}"
                )
        _set_quiver(self, quiver)
        _set_field(self, field)
        _set_dims(self, dims)
        _set_maps(self, maps)
        _set_h(self, None)

    def __hash__(self):
        h = self._h
        if h is None:
            h = hash((self.quiver, self.field, self.dims, self.maps))
            _set_h(self, h)
        return h

    def __repr__(self):
        return f"Rep(dims={self.dims} over {self.field!r})"

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


_set_quiver, _set_field, _set_dims, _set_maps, _set_h = _slot_writers(
    Rep, "quiver", "field", "dims", "maps", "_h"
)


def zero_rep(quiver: Quiver, field: Field) -> Rep:
    maps = [Mat.zeros(field, 0, 0) for _ in quiver.arrows]
    return Rep(quiver, field, [0] * quiver.n, maps)


def simple(quiver: Quiver, field: Field, v: int) -> Rep:
    """The simple representation concentrated at vertex v."""
    if not (1 <= v <= quiver.n):
        raise ValueError(f"vertex {v} outside 1..{quiver.n}")
    dims = [1 if w == v else 0 for w in quiver.vertices()]
    maps = [
        Mat.zeros(field, dims[a.target - 1], dims[a.source - 1]) for a in quiver.arrows
    ]
    return Rep(quiver, field, dims, maps)


def _paths_from(quiver: Quiver, v: int):
    """All paths starting at v, grouped by endpoint, in a stable order."""
    paths = {w: [] for w in quiver.vertices()}
    paths[v].append(())
    for u in quiver.topological_order():
        for a in quiver.arrows:
            if a.source != u:
                continue
            for p in paths[u]:
                paths[a.target].append(p + (a.name,))
    return paths


def projective(quiver: Quiver, field: Field, v: int) -> Rep:
    """The indecomposable projective P_v: paths out of v, arrows append.

    At a sink this is the simple module; in general dim (P_v)_w counts the
    paths v ~> w.
    """
    if not (1 <= v <= quiver.n):
        raise ValueError(f"vertex {v} outside 1..{quiver.n}")
    paths = _paths_from(quiver, v)
    dims = [len(paths[w]) for w in quiver.vertices()]
    maps = []
    for a in quiver.arrows:
        index = {p: i for i, p in enumerate(paths[a.target])}
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        ent = [field.zero] * (rows * cols)
        for j, p in enumerate(paths[a.source]):
            ent[index[p + (a.name,)] * cols + j] = field.one
        maps.append(Mat(field, rows, cols, ent))
    return Rep(quiver, field, dims, maps)


def direct_sum(reps) -> Rep:
    """Direct sum; vertex spaces are concatenated in the given order."""
    reps = list(reps)
    if not reps:
        raise ValueError("direct sum of an empty list needs an ambient quiver")
    q = reps[0].quiver
    f = reps[0].field
    for r in reps[1:]:
        if r.quiver != q or r.field != f:
            raise ValueError("summands live over different quivers or fields")
    dims = [sum(r.dim(v) for r in reps) for v in q.vertices()]
    maps = []
    for ai, a in enumerate(q.arrows):
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        ent = [f.zero] * (rows * cols)
        roff = 0
        coff = 0
        for r in reps:
            m = r.maps[ai]
            for i in range(m.rows):
                for j in range(m.cols):
                    ent[(roff + i) * cols + (coff + j)] = m.entry(i, j)
            roff += m.rows
            coff += m.cols
        maps.append(Mat(f, rows, cols, ent))
    return Rep(q, f, dims, maps)


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class RepMap(_Frozen):
    """A morphism of representations: one matrix per vertex, commuting.

    `RepMap(source, target, blocks)` checks the endpoints, the block count
    and shapes, and that every arrow square commutes. The library's own
    operations build maps that are morphisms by construction (Hom kernel
    vectors, composites, linear combinations, identities, polynomials in an
    endomorphism) through `_make`, which checks nothing.
    """

    source: Rep
    target: Rep
    blocks: tuple

    def __init__(self, source: Rep, target: Rep, blocks):
        if source.quiver != target.quiver or source.field != target.field:
            raise ValueError("morphism endpoints disagree on quiver or field")
        blocks = tuple(blocks)
        q = source.quiver
        if len(blocks) != q.n:
            raise ValueError(f"expected {q.n} blocks, got {len(blocks)}")
        for v in q.vertices():
            b = blocks[v - 1]
            if (b.rows, b.cols) != (target.dim(v), source.dim(v)):
                raise ValueError(
                    f"block at vertex {v} has shape {b.rows}x{b.cols}, "
                    f"want {target.dim(v)}x{source.dim(v)}"
                )
        for ai, a in enumerate(q.arrows):
            lhs = blocks[a.target - 1].mul(source.maps[ai])
            rhs = target.maps[ai].mul(blocks[a.source - 1])
            if lhs != rhs:
                raise ValueError(f"blocks do not commute with arrow {a.name}")
        _set_source(self, source)
        _set_target(self, target)
        _set_blocks(self, blocks)

    @classmethod
    def _make(cls, source: Rep, target: Rep, blocks: tuple) -> "RepMap":
        """Internal constructor for blocks, a tuple, known to form a morphism."""
        m = object.__new__(cls)
        _set_source(m, source)
        _set_target(m, target)
        _set_blocks(m, blocks)
        return m

    def __repr__(self):
        return f"RepMap({self.source.dims} -> {self.target.dims})"

    def block(self, v: int) -> Mat:
        return self.blocks[v - 1]

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def after(self, other: "RepMap") -> "RepMap":
        """Composite self o other (apply `other` first)."""
        if other.target != self.source:
            raise ValueError("composition endpoints do not match")
        blocks = tuple(s.mul(o) for s, o in zip(self.blocks, other.blocks))
        return RepMap._make(other.source, self.target, blocks)

    def flatten(self):
        """All block entries in vertex order, row-major; a coordinate vector."""
        out = []
        for b in self.blocks:
            out.extend(b.entries)
        return tuple(out)


_set_source, _set_target, _set_blocks = _slot_writers(RepMap, "source", "target", "blocks")


def identity_map(M: Rep) -> RepMap:
    return RepMap._make(M, M, tuple(Mat.identity(M.field, d) for d in M.dims))


def _hom_system(M: Rep, N: Rep):
    """Phi as sparse integer rows, with its column layout: (rows, col_off, cols).

    The rows run over the arrows in order and, for a: u -> w, over the
    entries (i, j) of f_w M_a - N_a f_u, i before j; each is a
    {column: int} dict of its nonzero coefficients, those of f_w before
    those of f_u. f_v[s, t] is column col_off[v - 1] + s * dim M_v + t of
    the cols columns. An arrow with dim N_w * dim M_u = 0 has no entries
    and is skipped before its matrices are read; for the others the
    nonzero entries of each column of M_a and each row of N_a are listed
    once per arrow. Over the rationals M_a and N_a are cleared of one
    common denominator and each row is then made primitive, which gives
    the rows `exactlin._sparse_rows` makes of the dense matrix; over F_p
    entries are kept mod p.
    """
    if (M.quiver is not N.quiver and M.quiver != N.quiver) or (
        M.field is not N.field and M.field != N.field
    ):
        raise ValueError("representations live over different quivers or fields")
    p = M.field.characteristic
    md, nd = M.dims, N.dims
    col_off = []
    cols = 0
    for m, n in zip(md, nd):
        col_off.append(cols)
        cols += n * m
    rows = []
    for a, Ma, Na in zip(M.quiver.arrows, M.maps, N.maps):
        u, w = a.source - 1, a.target - 1
        mu, nw = md[u], nd[w]
        if not nw * mu:
            continue
        mw, nu = md[w], nd[u]
        if p:
            Ma, Na = Ma.entries, Na.entries
        else:
            ints, _ = _cleared(Ma.entries + Na.entries)
            Ma, Na = ints[: mw * mu], ints[mw * mu :]
        # f_w[i, t] has coefficient M_a[t, j], f_u[s, j] has -N_a[i, s]
        m_cols = [[(t, x) for t, x in enumerate(Ma[j::mu]) if x] for j in range(mu)]
        cw, cu = col_off[w], col_off[u]
        for i in range(nw):
            c = cw + i * mw
            n_row = [
                (cu + s * mu, (-x) % p if p else -x)
                for s, x in enumerate(Na[i * nu : i * nu + nu])
                if x
            ]
            for j in range(mu):
                row = {c + t: x for t, x in m_cols[j]}
                for cs, x in n_row:
                    row[cs + j] = x
                if not p:
                    _make_primitive(row)
                rows.append(row)
    return rows, col_off, cols


def _hom_system_rank(M: Rep, N: Rep):
    """(rows, cols, rank) of the Hom system of (M, N): dim Hom is
    cols - rank and dim Ext^1 is rows - rank. Unmemoized, for one-shot
    sweeps that would only fill the memo."""
    rows, _, cols = _hom_system(M, N)
    return len(rows), cols, len(_reduce(rows, M.field.characteristic, False))


# kept for the life of the process; a mismatched pair raises on every call
_hom_rank = cache(_hom_system_rank)


def _hom_echelon(M: Rep, N: Rep):
    """(piv, col_off, cols): the Hom system of (M, N) in reduced echelon
    form, as `_reduce(..., full=True)` leaves it, with its column layout.
    dim Hom(M, N) is cols - len(piv)."""
    rows, col_off, cols = _hom_system(M, N)
    return _reduce(rows, M.field.characteristic, True), col_off, cols


def _hom_basis(M: Rep, N: Rep, piv, col_off, cols):
    """The basis of Hom(M, N) read off `_hom_echelon(M, N)`, a generator:
    each RepMap is made only when the caller draws it, in the order of
    its free column."""
    f = M.field
    shapes = [(N.dim(v), M.dim(v), col_off[v - 1]) for v in M.quiver.vertices()]
    for x in _kernel_vectors(f, piv, cols).values():
        blocks = tuple(Mat._make(f, r, c, tuple(x[off : off + r * c])) for r, c, off in shapes)
        # commuting is what the kernel of the Hom system means
        yield RepMap._make(M, N, blocks)


def hom_space(M: Rep, N: Rep):
    """A deterministic basis of Hom(M, N) as a list of RepMaps.

    The basis is the reduced-echelon kernel basis of the Hom system: each
    map has 1 at its free column and 0 at the other free columns. It is
    every map `_hom_basis` yields, in order.
    """
    return list(_hom_basis(M, N, *_hom_echelon(M, N)))


def hom_dim(M: Rep, N: Rep) -> int:
    _, cols, rank = _hom_rank(M, N)
    return cols - rank


def end_dim(M: Rep) -> int:
    return hom_dim(M, M)


def ext1_dim(M: Rep, N: Rep) -> int:
    """dim Ext^1(M, N), the cokernel of the Hom system."""
    rows, _, rank = _hom_rank(M, N)
    return rows - rank


def orthogonal(M: Rep, N: Rep) -> bool:
    """Hom(M, N) = 0 = Ext^1(M, N), decided by one elimination.

    Hom is the kernel of the Hom system and Ext^1 its cokernel, so both
    vanish exactly when the system is square and of full rank. Its rows
    minus its columns is -<dim M, dim N>, so a nonzero Euler form answers
    without eliminating.
    """
    q = M.quiver
    if q == N.quiver and M.field == N.field and q.euler_form(M.dims, N.dims):
        return False
    _, cols, rank = _hom_rank(M, N)
    return rank == cols


def is_exceptional(X: Rep) -> bool:
    """True when X is indecomposable, rigid, and has trivial endomorphisms.

    dim End(X) = 1 already forces indecomposability, and conversely an
    indecomposable rigid module over these ground fields has endomorphism
    ring equal to the ground field, so the test never needs a decomposition.
    Both dimensions come from one rank r of the Hom system of (X, X): End
    is cols - r and Ext^1 is rows - r.
    """
    rows, cols, rank = _hom_rank(X, X)
    return rows == cols - 1 and rank == rows


def ext1_space(M: Rep, N: Rep):
    """A basis of Ext^1(M, N) as unit cocycles.

    Each cocycle is a dict sending an arrow name a: u -> w to a matrix of
    shape N_w x M_u; the classes of these cocycles form a basis of the
    cokernel of the Hom system. The unit rows are those off the pivots of
    its column space; clearing a row of denominators scales it, which moves
    none of those pivots.
    """
    phi, _, n = _hom_system(M, N)
    f = M.field
    columns = [{} for _ in range(n)]
    for r, row in enumerate(phi):
        for c, x in row.items():
            columns[c][r] = x
    pivot_rows = _reduce(columns, f.characteristic, False)
    q = M.quiver
    # the arrow and entry (i, j) of each row, in the order of _hom_system
    units = [
        (a, i, j)
        for a in q.arrows
        for i in range(N.dim(a.target))
        for j in range(M.dim(a.source))
    ]
    out = []
    for r, (a, i, j) in enumerate(units):
        if r in pivot_rows:
            continue
        z = {}
        for b in q.arrows:
            z[b.name] = Mat.zeros(f, N.dim(b.target), M.dim(b.source))
        rows, cols = N.dim(a.target), M.dim(a.source)
        ent = [f.zero] * (rows * cols)
        ent[i * cols + j] = f.one
        z[a.name] = Mat(f, rows, cols, ent)
        out.append(z)
    return out


def extension_from_cocycle(M: Rep, N: Rep, cocycle) -> Rep:
    """The middle term E of the extension 0 -> N -> E -> M -> 0 of a cocycle.

    E_v = N_v (+) M_v with arrow matrices [[N_a, z_a], [0, M_a]]: N sits on
    the first coordinates of each E_v and is a subrepresentation, M is the
    quotient on the last coordinates.
    """
    q = M.quiver
    f = M.field
    dims = [N.dim(v) + M.dim(v) for v in q.vertices()]
    maps = []
    for ai, a in enumerate(q.arrows):
        u, w = a.source, a.target
        z = cocycle[a.name]
        if (z.rows, z.cols) != (N.dim(w), M.dim(u)):
            raise ValueError(
                f"cocycle at arrow {a.name} has shape {z.rows}x{z.cols}, "
                f"want {N.dim(w)}x{M.dim(u)}"
            )
        top = N.maps[ai].hstack(z)
        bot = Mat.zeros(f, M.dim(w), N.dim(u)).hstack(M.maps[ai])
        maps.append(top.vstack(bot))
    return Rep(q, f, dims, maps)


def universal_extension(X: Rep, R: Rep):
    """The universal extension 0 -> R -> M -> X^c -> 0 with c = ext1_dim(X, R).

    Stacks a full cocycle basis of Ext^1(X, R), so Ext^1(X, M) = 0: every
    self-extension against X has been used up. Returns (c, M), with M = R
    itself when c = 0. Checks that X is exceptional and that Ext^1(X, M)
    vanishes.
    """
    if not is_exceptional(X):
        raise ValueError("universal extension needs an exceptional X")
    cocycles = ext1_space(X, R)
    c = len(cocycles)
    if c == 0:
        return 0, R
    stacked = {
        a.name: reduce(Mat.hstack, [z[a.name] for z in cocycles])
        for a in X.quiver.arrows
    }
    M = extension_from_cocycle(direct_sum([X] * c), R, stacked)
    if ext1_dim(X, M) != 0:
        raise AssertionError("universal extension left extensions behind")
    return c, M


def free_module(quiver: Quiver, field: Field) -> Rep:
    """A = P_1 (+) ... (+) P_n, the algebra as a module over itself."""
    return direct_sum([projective(quiver, field, v) for v in quiver.vertices()])


def _rows_of(m: Mat, rows) -> Mat:
    """The submatrix of m on the given rows, in their order."""
    c, e = m.cols, m.entries
    ent = ()
    for i in rows:
        ent += e[i * c : i * c + c]
    return Mat._make(m.field, len(rows), c, ent)


def _kernel(f: RepMap):
    """The kernel of f as (K, bases): bases[v - 1] spans K_v in the source.

    bases[v - 1] is the reduced-echelon kernel basis B_v of f_v, the
    identity on its free rows, so the restriction x of an arrow a: u -> w,
    the solution of B_w x = M_a B_u, is M_a B_u at the free rows of B_w.
    There B_w x and M_a B_u agree by construction, so invariance is checked
    on the pivot rows of B_w alone (all rows when K_w = 0, where the check
    is M_a B_u = 0); an arrow out of K_u = 0 has nothing to check.
    """
    M = f.source
    fld = M.field
    kers = [f.block(v)._kernel_matrix() for v in M.quiver.vertices()]
    bases = [B for B, _ in kers]
    maps = []
    for a, Ma in zip(M.quiver.arrows, M.maps):
        Bu = bases[a.source - 1]
        Bw, free = kers[a.target - 1]
        if not Bu.cols:
            maps.append(Mat._make(fld, len(free), 0, ()))
            continue
        # a square B_u is the identity: K_u is all of M_u
        moved = Ma if Bu.cols == Bu.rows else Ma.mul(Bu)
        x = _rows_of(moved, free)
        pivots = [i for i in range(Bw.rows) if i not in free]
        if pivots and _rows_of(Bw, pivots).mul(x) != _rows_of(moved, pivots):
            raise AssertionError("kernel is not an invariant subspace")
        maps.append(x)
    return Rep(M.quiver, fld, [B.cols for B in bases], maps), bases


def _cokernel(f: RepMap):
    """The cokernel of f as (C, blocks): blocks[v - 1] projects the target onto C_v.

    blocks[v - 1] is the reduced-echelon basis P_v of the left kernel of f_v,
    read off its transpose: the identity at the coordinates off the column
    space's echelon pivots, which coordinatize C_v, so the map of an arrow
    a: u -> w is P_w N_a at the columns where P_u is the identity.
    """
    N = f.target
    q = N.quiver
    kers = [f.block(v).transpose()._kernel_matrix() for v in q.vertices()]
    blocks = [B.transpose() for B, _ in kers]
    cmaps = []
    for a, Na in zip(q.arrows, N.maps):
        m = blocks[a.target - 1].mul(Na)
        sel = kers[a.source - 1][1]
        ent = tuple(m.entry(i, j) for i in range(m.rows) for j in sel)
        cmaps.append(Mat._make(N.field, m.rows, len(sel), ent))
    return Rep(q, N.field, [P.rows for P in blocks], cmaps), blocks


def _as_columns(maps) -> Mat:
    """The matrix with one column per map, its flattened entries."""
    flat = [m.flatten() for m in maps]
    # RepMap entries are already canonical
    ent = tuple(x for row in zip(*flat) for x in row)
    return Mat._make(maps[0].source.field, len(flat[0]), len(flat), ent)


def coordinates_in_hom_basis(maps, basis):
    """The len(basis) x len(maps) matrix whose column j holds the coordinates
    of maps[j] in a Hom basis, from one elimination; None if some map lies
    outside the span. maps must not be empty."""
    if not basis:
        if any(not f.is_zero() for f in maps):
            return None
        return Mat.zeros(maps[0].source.field, 0, len(maps))
    return _as_columns(basis).solve_matrix(_as_columns(maps))


# --- decomposition into indecomposables ---


def _combo(maps, coeffs):
    """sum_i coeffs[i] * maps[i], folded left blockwise into one RepMap."""
    blocks = tuple(
        reduce(Mat.add, [m.block(v).scale(c) for m, c in zip(maps, coeffs)])
        for v in maps[0].source.quiver.vertices()
    )
    return RepMap._make(maps[0].source, maps[0].target, blocks)


def _plus_scalar(m: Mat, c) -> Mat:
    """m + c I for a square matrix m."""
    f = m.field
    ent = list(m.entries)
    for i in range(0, len(ent), m.cols + 1):
        ent[i] = f.add(ent[i], c)
    return Mat._make(f, m.rows, m.cols, tuple(ent))


def _eval_poly_on_endo(e: RepMap, coeffs) -> RepMap:
    """A monic coeffs[k] t^k of degree >= 1 evaluated at e, blockwise Horner.

    Horner starts at the leading term, so t - lam costs no matrix product.
    """
    M = e.source
    blocks = []
    for x in e.blocks:
        acc = _plus_scalar(x, coeffs[-2])
        for c in reversed(coeffs[:-2]):
            acc = _plus_scalar(acc.mul(x), c)
        blocks.append(acc)
    # a polynomial in e commutes with every arrow because e does
    return RepMap._make(M, M, tuple(blocks))


def _powers(e: RepMap):
    """The flattened powers 1, e, e^2, ..., e^d of e, d = total dimension,
    each formed only when it is asked for."""
    yield identity_map(e.source).flatten()
    x = e
    for _ in range(e.source.total_dim):
        yield x.flatten()
        x = x.after(e)


def _minpoly_of_endo(e: RepMap):
    """Monic minimal polynomial of an endomorphism, low degree first.

    It is the first linear relation among the powers of e, found by one
    incremental reduction: each power is reduced against the ones before it
    (`exactlin._first_relation`), and no power past the minimal degree is
    formed. The zero module's minimal polynomial is the constant 1.
    """
    mp = _first_relation(e.source.field, _powers(e))
    if mp is None:
        raise AssertionError("minimal polynomial search ran past the dimension")
    return mp


# over F_p with p below this, a quadratic is factored by trying every root
_ROOT_SEARCH_LIMIT = 2 ** 10


def _quadratic_roots(field: Field, c0, c1):
    """The roots of t^2 + c1 t + c0 in the field, a double root twice.

    Returns [] when the quadratic is irreducible. Over F_p, p must be below
    _ROOT_SEARCH_LIMIT.
    """
    if field.is_rational:
        disc = c1 * c1 - 4 * c0
        if disc < 0:
            return []
        num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
        if num * num != disc.numerator or den * den != disc.denominator:
            return []
        s = Fraction(num, den)
        return [(-c1 - s) / 2, (-c1 + s) / 2]
    p = field.characteristic
    r = next((x for x in range(p) if (x * x + c1 * x + c0) % p == 0), None)
    return [] if r is None else [r, (-c1 - r) % p]


def _factor_poly(field: Field, coeffs):
    """Factor a monic polynomial; returns [(factor_coeffs_low_first, exponent)].

    The factors are monic and come in the order of sympy's
    `Poly.factor_list`, which decides the order in which `decompose` splits.
    Degrees 1 and 2 are factored here. A linear factor t + c sorts by its
    primitive integer form d t + n on (d, n) over Q, and by c in [0, p) over
    F_p; both are (c.denominator, c.numerator). Everything else goes to sympy.
    """
    if len(coeffs) == 2:
        return [(list(coeffs), 1)]
    if len(coeffs) == 3 and field.characteristic < _ROOT_SEARCH_LIMIT:
        roots = _quadratic_roots(field, coeffs[0], coeffs[1])
        if not roots:
            return [(list(coeffs), 1)]
        consts = sorted(
            (field.neg(r) for r in roots), key=lambda c: (c.denominator, c.numerator)
        )
        if consts[0] == consts[1]:
            return [([consts[0], field.one], 2)]
        return [([c, field.one], 1) for c in consts]
    return _sympy_factor(field, coeffs)


def _sympy_factor(field: Field, coeffs):
    """`_factor_poly` by sympy's `Poly.factor_list`, for any degree."""
    import sympy

    t = sympy.Symbol("t")
    if field.is_rational:
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], t, domain="QQ")
    else:
        poly = sympy.Poly(
            [int(c) for c in reversed(coeffs)], t, modulus=field.characteristic
        )
    _, factors = poly.factor_list()
    out = []
    for fac, exp in factors:
        cs = list(reversed(fac.all_coeffs()))
        if field.is_rational:
            lifted = [Fraction(c.p, c.q) for c in cs]
            lead = lifted[-1]
            lifted = [c / lead for c in lifted]
        else:
            lifted = [field.coerce(int(c)) for c in cs]
            lead = lifted[-1]
            inv = field.inv(lead)
            lifted = [field.mul(c, inv) for c in lifted]
        out.append((lifted, int(exp)))
    return out


def _split_along_endo(M: Rep, e: RepMap, factors):
    """Generalized kernels of the minpoly factors; a direct decomposition."""
    parts = []
    for coeffs, mult in factors:
        g = _eval_poly_on_endo(e, coeffs)
        h = g
        for _ in range(mult - 1):
            h = h.after(g)
        parts.append(_kernel(h)[0])
    if sum(p.total_dim for p in parts) != M.total_dim:
        raise AssertionError("generalized kernels fail to fill the module")
    return parts


# random combinations of the Hom basis tried after the basis maps, before
# the indecomposability certificates
_RANDOM_CANDIDATES = 64


def _candidate_endos(maps, basis: list, make_rng, field: Field):
    """The maps of a Hom basis as they are drawn, each appended to basis,
    then random combinations of the full basis, drawn from the
    random.Random that make_rng() returns."""
    for m in maps:
        basis.append(m)
        yield m
    d = len(basis)
    rng = make_rng()
    for _ in range(_RANDOM_CANDIDATES):
        if field.is_rational:
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        else:
            coeffs = [rng.randrange(field.characteristic) for _ in range(d)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = field.one
        yield _combo(basis, coeffs)


def _independent_subset(maps):
    """The maps independent of the ones before them, in one elimination."""
    if not maps:
        return []
    rows = Mat.from_rows(maps[0].source.field, [m.flatten() for m in maps])
    return [maps[i] for i in rows.column_space_pivot_rows()]


def _nilpotent_ideal_certificate(basis, ideal):
    """Check span(ideal) is a nilpotent two-sided ideal of span(basis)."""
    products = [p for r in ideal for b in basis for p in (r.after(b), b.after(r))]
    if products and coordinates_in_hom_basis(products, ideal) is None:
        return False
    current = _independent_subset(ideal)
    while current:
        if all(m.is_zero() for m in current):
            return True
        nxt = _independent_subset([x.after(r) for x in current for r in ideal])
        if len(nxt) >= len(current):
            return False
        current = nxt
    return True


def _pair_trace(x: RepMap, y: RepMap):
    f = x.source.field
    total = f.zero
    for bx, by in zip(x.blocks, y.blocks):
        for i in range(bx.rows):
            for j in range(bx.cols):
                total = f.add(total, f.mul(bx.entry(i, j), by.entry(j, i)))
    return total


def _radical_candidates(M: Rep, basis):
    """Spans that may be the radical of End(M), each to be certified.

    First the kernel of the trace form, which is the radical in
    characteristic 0. Then, when every basis element b has minimal
    polynomial (t - lam)^e, the span of the b - lam; over a small prime the
    trace form can be degenerate on a local ring with residue field k.
    """
    fld = M.field
    gram = Mat.from_rows(fld, [[_pair_trace(x, y) for y in basis] for x in basis])
    yield [_combo(basis, list(c.entries)) for c in gram.kernel_basis()]
    shifted = []
    for b in basis:
        factors = _factor_poly(fld, _minpoly_of_endo(b))
        if len(factors) != 1 or len(factors[0][0]) != 2:
            return
        shifted.append(_eval_poly_on_endo(b, factors[0][0]))
    yield _independent_subset(shifted)


def _annihilator_conditions(M: Rep, basis, known):
    """Linear conditions on the coefficients of e = sum c_j basis[j].

    First e_v(w) = 0 for each unit vector w of each M_v, then e phi = 0 for
    each basis map phi: Y -> M of each module Y in known.
    """
    for v in M.quiver.vertices():
        for k in range(M.dim(v)):
            # e_v(w) for the k-th unit vector w is column k of e's block at v
            yield [[b.block(v).entry(i, k) for b in basis] for i in range(M.dim(v))]
    for Y in known:
        for phi in hom_space(Y, M):
            yield [list(row) for row in zip(*(b.after(phi).flatten() for b in basis))]


def _left_ideal_idempotent(M: Rep, basis, known):
    """A splitting idempotent read off a left ideal of End(M), or None.

    For a nonzero map phi into M, L = {e : e phi = 0} is a proper left
    ideal. An x in L with l x = l for every l in L is a nontrivial
    idempotent: x x = x since x is in L, x != 0 since L != 0, and x != 1
    since x phi = 0. Such an x exists when L is generated by an idempotent,
    as it is when End(M) is a full matrix ring (M = X^m with End(X) = k),
    where random endomorphisms often have irreducible minimal polynomials
    over Q and split nothing. There L != 0 when phi factors through one copy
    of X: a unit vector of M_v (a map from P_v) does when dim X_v = 1, and
    a nonzero map from X always does, so after the unit vectors the
    summands split off elsewhere are tried as sources.
    """
    fld = M.field
    for conditions in _annihilator_conditions(M, basis, known):
        evals = Mat.from_rows(fld, conditions)
        ideal = [_combo(basis, list(c.entries)) for c in evals.kernel_basis()]
        if not ideal:
            continue
        # x = sum_j c_j ideal[j]; one equation per entry of l_i x = l_i
        prods = [[li.after(lj).flatten() for lj in ideal] for li in ideal]
        rows, rhs = [], []
        for li, row_prods in zip(ideal, prods):
            for pos, value in enumerate(li.flatten()):
                rows.append([p[pos] for p in row_prods])
                rhs.append(value)
        sol = Mat.from_rows(fld, rows).solve(Mat.column(fld, rhs))
        if sol is not None:
            return _combo(ideal, list(sol.entries))
    return None


def _exhaustive_idempotent(M, basis):
    """Search all of End over a small prime field for a splitting idempotent.

    Returns an idempotent RepMap, or True when provably none exists. Its
    budget is the p^d combinations of the d basis maps over F_p, which
    `_certify_or_split` allows only while p^d <= _EXHAUSTIVE_LIMIT = 2^20.
    """
    fld = M.field
    p = fld.characteristic
    d = len(basis)
    ident = identity_map(M)
    for coeffs in itertools.product(range(p), repeat=d):
        if all(c == 0 for c in coeffs):
            continue
        e = _combo(basis, list(coeffs))
        if e == ident:
            continue
        if e.after(e) == e:
            return e
    return True


_EXHAUSTIVE_LIMIT = 2 ** 20


def _certify_or_split(M, basis, top, known):
    """True (certified indecomposable), a splitting idempotent, or None.

    `top` is the largest degree of an irreducible f such that some
    endomorphism theta has minimal polynomial f^e. If R is a nilpotent
    ideal and dim End/R is 1 or deg f, then k[theta] fills End/R, which is
    therefore the field k[t]/(f): R is the radical and End is local.
    """
    d = len(basis)
    for rad in _radical_candidates(M, basis):
        if d - len(rad) in (1, top) and _nilpotent_ideal_certificate(basis, rad):
            return True
    idem = _left_ideal_idempotent(M, basis, known)
    if idem is not None:
        return idem
    fld = M.field
    if not fld.is_rational and fld.characteristic ** d <= _EXHAUSTIVE_LIMIT:
        return _exhaustive_idempotent(M, basis)
    return None


def _decompose_into(M: Rep, make_rng, out: list, pending: list):
    """Append the summands of M to out; pending lists parts not yet split.
    make_rng() returns the random.Random that every node of the search
    draws from."""
    if M.total_dim <= 1:
        # End of a one-dimensional module is the field
        if M.total_dim:
            out.append(M)
        return
    piv, col_off, cols = _hom_echelon(M, M)
    if cols - len(piv) == 1:
        out.append(M)
        return
    # filled as the search draws the basis maps; complete once it has
    # tried them all, which it has when no candidate splits M
    basis = []
    top = 1
    for e in _candidate_endos(_hom_basis(M, M, piv, col_off, cols), basis, make_rng, M.field):
        mp = _minpoly_of_endo(e)
        if len(mp) <= 2:
            continue
        factors = _factor_poly(M.field, mp)
        if len(factors) > 1:
            break
        top = max(top, len(factors[0][0]) - 1)
    else:
        e = _certify_or_split(M, basis, top, out + pending)
        if e is True:
            out.append(M)
            return
        if e is None:
            raise UndecidedError(
                f"cannot certify indecomposability at dimension vector {M.dims} "
                f"(endomorphism ring dimension {len(basis)})"
            )
        factors = _factor_poly(M.field, _minpoly_of_endo(e))
    parts = _split_along_endo(M, e, factors)
    for i, part in enumerate(parts):
        _decompose_into(part, make_rng, out, parts[i + 1 :] + pending)


def decompose(M: Rep, seed: int = 0):
    """Split M into indecomposable summands (with multiplicity).

    The output order is deterministic: sorted by total dimension, then by
    dimension vector. Raises UndecidedError instead of guessing when no
    splitting and no indecomposability certificate is found. The seeded
    random.Random is made on the first random draw, which most inputs
    never reach.
    """
    out = []
    _decompose_into(M, cache(lambda: random.Random(seed)), out, [])
    out.sort(key=lambda r: (r.total_dim, r.dims))
    return out


def distinct_summands(parts):
    """One representative per isomorphism class of the summands of a rigid module.

    Keeps the first summand of each dimension vector, in order. Deciding
    isomorphism by dimension vector is exact here. Let X, Y be
    indecomposable summands of a rigid module with the same dimension
    vector d. Then Ext^1(X, Y) = 0 = Ext^1(Y, X), so dim Hom(X, Y) equals
    the Euler form <d, d> = dim End(X) > 0. A nonzero map X -> Y with
    Ext^1(Y, X) = 0 is mono or epi (Happel-Ringel lemma); with equal
    dimension vectors it is an isomorphism. Callers must only pass
    indecomposable summands of a rigid module.
    """
    seen = set()
    out = []
    for p in parts:
        if p.dims not in seen:
            seen.add(p.dims)
            out.append(p)
    return out


def _check_summand_dims(q: Quiver, parts, want, name: str, whole: str) -> None:
    """Require three conditions on the dimension vectors of parts, the
    indecomposable summands with multiplicity of a rigid module over q of
    dimension vector want; all three hold for every rigid module.

    Each is a real root (<d, d> = dim End = 1), distinct ones pair
    non-negatively (Ext^1 vanishes between them, so <d, e> = dim Hom), and
    they add up to want. Raises AssertionError naming the condition that
    fails; name and whole word the message ("Bongartz", "the parts'").
    """
    dims = [p.dims for p in distinct_summands(parts)]
    for d in dims:
        for e in dims:
            form = q.euler_form(d, e)
            if d == e and form != 1:
                raise AssertionError(
                    f"{name} summand of dimension {d} is not a real root: <d, d> = {form}"
                )
            if form < 0:
                raise AssertionError(
                    f"{name} summands of dimension {d} and {e} have negative Euler form {form}"
                )
    total = tuple(map(sum, zip(*(p.dims for p in parts))))
    if total != want:
        raise AssertionError(
            f"{name} summands add up to dimension {total}, not to {whole} {want}"
        )


def _assembled(maps, stack):
    """The blocks, vertex by vertex, of [f_1 ... f_r]: X^r -> E (stack =
    Mat.hstack) or [f_1; ...; f_r]: X -> E^r (stack = Mat.vstack) for the
    maps f_i: X -> E, of which there must be at least one."""
    return [
        reduce(stack, [f.block(v) for f in maps])
        for v in maps[0].source.quiver.vertices()
    ]


def _in_add(M: Rep, summands):
    """The multiplicities (m_d), parallel to summands, when M is rigid and
    dim M = sum_d m_d dim d with integers m_d >= 0; else None.

    For pairwise Ext-orthogonal indecomposable rigid summands d (the
    summands of one rigid module) this certifies M = (+)_d d^{m_d} without
    decomposing M, by two theorems. A rigid module over a hereditary
    algebra is determined by its dimension vector (its orbit is open; Kac,
    1980, and Happel-Ringel, Tilted algebras, 1982), and (+)_d d^{m_d} is
    rigid with the dimension vector of M. The dim d are linearly
    independent (Happel-Ringel, 1982), so one solve finds the only
    candidate m. The caller vouches for the summands; nothing here checks
    them. With no summands the answer for the zero module is (), not None.
    """
    if ext1_dim(M, M) != 0:
        return None
    n = M.quiver.n
    D = Mat(QQ, n, len(summands), [d.dims[v] for v in range(n) for d in summands])
    m = D.solve(Mat.column(QQ, M.dims))
    if m is None or any(x < 0 or x.denominator != 1 for x in m.entries):
        return None
    return tuple(int(x) for x in m.entries)


def _isotypic(X: Rep, E: Rep) -> bool:
    """True when E = X^m, shown by one Hom(X, E) system.

    A basis f_1, ..., f_r of Hom(X, E) assembles into the morphism
    [f_1 ... f_r]: X^r -> E. When it is bijective at every vertex it is an
    isomorphism; its blocks are then square, so dim E = r dim X and r is
    the m of dim E = m dim X: a basis one map short or long fails. The
    converse holds when End(X) is the ground field: Hom(X, X^m) has
    dimension m, and the assembled basis is an invertible scalar matrix
    times id_X. No rigidity theorem is used and no (E, E) system is built;
    the cost is one Hom system with m sum_v (dim X_v)^2 unknowns.
    """
    maps = hom_space(X, E)
    return bool(maps) and all(b.is_invertible() for b in _assembled(maps, Mat.hstack))


# --- isomorphism testing ---


def _indec_isomorphic(X: Rep, Y: Rep) -> bool:
    """Exact test for indecomposables: some composite of basis maps is a unit.

    If X and Y are isomorphic, the identity of X is a combination of the
    composites g.f of basis maps f: X -> Y and g: Y -> X. End(X) is local,
    so were every composite in its radical, the identity would be too.
    """
    if X.dims != Y.dims:
        return False
    fwd = hom_space(X, Y)
    bwd = hom_space(Y, X)
    for f in fwd:
        for g in bwd:
            if all(b.is_invertible() for b in g.after(f).blocks):
                return True
    return False


def is_isomorphic(M: Rep, N: Rep) -> bool:
    """Exact isomorphism test by Krull-Schmidt.

    Modules with different dimension vectors are not isomorphic. Otherwise
    both sides are decomposed and their indecomposable summands matched one
    to one with `_indec_isomorphic`; like `decompose`, this may raise
    UndecidedError. The pipeline itself never calls this: the modules it
    compares are exceptional, and an exceptional module is determined by
    its dimension vector. It stays as public API, and the benchmark's
    layer trace (bench/spans.py) times it.
    """
    if M.quiver != N.quiver or M.field != N.field:
        raise ValueError("representations live over different quivers or fields")
    if M.dims != N.dims:
        return False
    unmatched = decompose(N)
    for x in decompose(M):
        for k, y in enumerate(unmatched):
            if _indec_isomorphic(x, y):
                del unmatched[k]
                break
        else:
            return False
    return not unmatched


# --- text format for representations ---


def parse_rep_blocks(field: Field, quiver: Quiver, rep_lines):
    """Parse the representation blocks handed back by the quiver parser.

    Each block is

        rep
        dims d1 d2 ... dn
        map <arrow> <row-major entries>

    with one `map` line per arrow whose matrix is nonempty. Entries are
    integers or quotients like 3/2.
    """
    reps = []
    i = 0
    lines = list(rep_lines)
    while i < len(lines):
        lineno, tok = lines[i]
        if tok != ["rep"]:
            raise ParseError(f"expected a 'rep' line, got {' '.join(tok)!r}", lineno)
        rep_line = lineno
        i += 1
        dims = None
        matrices = {}
        while i < len(lines) and lines[i][1] != ["rep"]:
            lno, t = lines[i]
            if t[0] == "dims":
                if dims is not None:
                    raise ParseError("duplicate dims line", lno)
                if len(t) != quiver.n + 1:
                    raise ParseError(
                        f"want {quiver.n} dimensions after 'dims', got {len(t) - 1}", lno
                    )
                try:
                    dims = [int(x) for x in t[1:]]
                except ValueError:
                    raise ParseError("dimensions must be integers", lno) from None
                if any(d < 0 for d in dims):
                    raise ParseError("dimensions must be non-negative", lno)
            elif t[0] == "map":
                if dims is None:
                    raise ParseError("map before dims", lno)
                if len(t) < 2:
                    raise ParseError("want 'map <arrow> <entries>'", lno)
                try:
                    a = quiver.arrow(t[1])
                except KeyError:
                    raise ParseError(f"unknown arrow {t[1]!r}", lno) from None
                if a.name in matrices:
                    raise ParseError(f"duplicate map line for arrow {a.name}", lno)
                rows = dims[a.target - 1]
                cols = dims[a.source - 1]
                if len(t) - 2 != rows * cols:
                    raise ParseError(
                        f"arrow {a.name} needs {rows * cols} entries "
                        f"({rows}x{cols}), got {len(t) - 2}",
                        lno,
                    )
                try:
                    ent = [field.parse(x) for x in t[2:]]
                except ValueError as exc:
                    raise ParseError(str(exc), lno) from None
                matrices[a.name] = Mat(field, rows, cols, ent)
            else:
                raise ParseError(f"unknown directive {t[0]!r} in rep block", lno)
            i += 1
        if dims is None:
            raise ParseError("rep block has no dims line", rep_line)
        for a in quiver.arrows:
            rows = dims[a.target - 1]
            cols = dims[a.source - 1]
            if a.name not in matrices:
                if rows * cols == 0:
                    matrices[a.name] = Mat.zeros(field, rows, cols)
                else:
                    raise ParseError(
                        f"rep block is missing a map line for arrow {a.name}", rep_line
                    )
        try:
            reps.append(Rep(quiver, field, dims, matrices))
        except ValueError as exc:
            raise ParseError(str(exc), rep_line) from None
    return reps

"""Representations of an acyclic quiver and their exact homological algebra.

A representation assigns a finite dimensional space to every vertex and a
matrix to every arrow (shapes follow the left-module convention: an arrow
a: u -> w gets a dims[w] x dims[u] matrix). Hom spaces and first extension
groups both come from one linear system: the map

    Phi: (f_v)_v  ->  (f_w M_a - N_a f_u)_{a: u -> w}

has kernel Hom(M, N) and cokernel Ext^1(M, N); the path algebra of an
acyclic quiver is hereditary, so there is nothing past Ext^1.

Decomposition splits along coprime factors of minimal polynomials of
endomorphisms and never guesses. A module is reported indecomposable only
when its endomorphism ring is shown to be local: a nilpotent two-sided
ideal R is exhibited with End/R of dimension 1, or of dimension deg f for
an irreducible f whose power f^e is the minimal polynomial of some
endomorphism theta met in the split search (then k[theta] fills End/R,
which is a field). When no endomorphism splits and no certificate holds,
a right identity of a left ideal {e : e phi = 0} of End, for phi a unit
vector of some M_v or a map from a summand split off elsewhere, is a
splitting idempotent if one exists, and over a small prime field an
exhaustive search settles the rest; `decompose` raises UndecidedError
otherwise.

Minimal polynomials of degree 1 and 2 are factored here exactly: over Q
through the discriminant, over a small prime field by root search. sympy
is imported only for the rest (degree 3 and more, or a quadratic over a
large prime field), so importing this module does not load it.

Isomorphism is decided by Krull-Schmidt: decompose both sides and match
indecomposable summands, which is exact because their endomorphism rings
are local.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import Field, Mat
from .quiver import ParseError, Quiver


class UndecidedError(RuntimeError):
    """Indecomposability could be neither refuted nor certified."""


class Rep:
    """A representation of a fixed quiver over a fixed field."""

    __slots__ = ("quiver", "field", "dims", "maps")

    def __init__(self, quiver: Quiver, field: Field, dims, maps):
        dims = tuple(int(d) for d in dims)
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
            want = (dims[a.target - 1], dims[a.source - 1])
            if m.field != field:
                raise ValueError(f"matrix for arrow {a.name} is over the wrong field")
            if (m.rows, m.cols) != want:
                raise ValueError(
                    f"matrix for arrow {a.name} has shape {m.rows}x{m.cols}, "
                    f"want {want[0]}x{want[1]}"
                )
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", maps)

    def __setattr__(self, name, value):
        raise AttributeError("Rep is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Rep)
            and self.quiver == other.quiver
            and self.field == other.field
            and self.dims == other.dims
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash((self.quiver, self.field, self.dims, self.maps))

    def __repr__(self):
        return f"Rep(dims={self.dims} over {self.field!r})"

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def arrow_map(self, name: str) -> Mat:
        for a, m in zip(self.quiver.arrows, self.maps):
            if a.name == name:
                return m
        raise KeyError(f"no arrow named {name!r}")

    def describe(self) -> dict:
        f = self.field
        return {
            "dims": list(self.dims),
            "maps": {
                a.name: [[f.format(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]
                for a, m in zip(self.quiver.arrows, self.maps)
            },
        }


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
    index = {w: {p: i for i, p in enumerate(paths[w])} for w in quiver.vertices()}
    dims = [len(paths[w]) for w in quiver.vertices()]
    maps = []
    for a in quiver.arrows:
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        ent = [field.zero] * (rows * cols)
        for j, p in enumerate(paths[a.source]):
            i = index[a.target][p + (a.name,)]
            ent[i * cols + j] = field.one
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


class RepMap:
    """A morphism of representations: one matrix per vertex, commuting."""

    __slots__ = ("source", "target", "blocks")

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
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("RepMap is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, RepMap)
            and self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.source, self.target, self.blocks))

    def __repr__(self):
        return f"RepMap({self.source.dims} -> {self.target.dims})"

    def block(self, v: int) -> Mat:
        return self.blocks[v - 1]

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def is_isomorphism(self) -> bool:
        if self.source.dims != self.target.dims:
            return False
        return all(b.is_invertible() for b in self.blocks)

    def after(self, other: "RepMap") -> "RepMap":
        """Composite self o other (apply `other` first)."""
        if other.target != self.source:
            raise ValueError("composition endpoints do not match")
        blocks = [s.mul(o) for s, o in zip(self.blocks, other.blocks)]
        return RepMap(other.source, self.target, blocks)

    def add(self, other: "RepMap") -> "RepMap":
        if self.source != other.source or self.target != other.target:
            raise ValueError("adding morphisms with different endpoints")
        return RepMap(
            self.source, self.target, [a.add(b) for a, b in zip(self.blocks, other.blocks)]
        )

    def scale(self, c) -> "RepMap":
        return RepMap(self.source, self.target, [b.scale(c) for b in self.blocks])

    def flatten(self):
        """All block entries in vertex order, row-major; a coordinate vector."""
        out = []
        for b in self.blocks:
            out.extend(b.entries)
        return tuple(out)


def identity_map(M: Rep) -> RepMap:
    return RepMap(M, M, [Mat.identity(M.field, d) for d in M.dims])


def _hom_system(M: Rep, N: Rep):
    """The matrix of Phi plus its row indexing (arrow, i, j)."""
    if M.quiver != N.quiver or M.field != N.field:
        raise ValueError("representations live over different quivers or fields")
    q = M.quiver
    f = M.field
    col_off = []
    total_cols = 0
    for v in q.vertices():
        col_off.append(total_cols)
        total_cols += N.dim(v) * M.dim(v)
    row_index = []
    for ai, a in enumerate(q.arrows):
        for i in range(N.dim(a.target)):
            for j in range(M.dim(a.source)):
                row_index.append((ai, i, j))
    ent = [f.zero] * (len(row_index) * total_cols)
    for r, (ai, i, j) in enumerate(row_index):
        a = q.arrows[ai]
        u, w = a.source, a.target
        Ma = M.maps[ai]
        Na = N.maps[ai]
        base = r * total_cols
        # coefficient of f_w[i, t] is M_a[t, j]
        for t in range(M.dim(w)):
            ent[base + col_off[w - 1] + i * M.dim(w) + t] = Ma.entry(t, j)
        # coefficient of f_u[s, j] is -N_a[i, s]
        for s in range(N.dim(u)):
            ent[base + col_off[u - 1] + s * M.dim(u) + j] = f.neg(Na.entry(i, s))
    A = Mat._make(f, len(row_index), total_cols, tuple(ent))
    return A, row_index, col_off


def hom_space(M: Rep, N: Rep):
    """A deterministic basis of Hom(M, N) as a list of RepMaps."""
    A, _, col_off = _hom_system(M, N)
    f = M.field
    out = []
    for x in A.kernel_basis():
        blocks = []
        for v in M.quiver.vertices():
            rows, cols = N.dim(v), M.dim(v)
            off = col_off[v - 1]
            blocks.append(Mat._make(f, rows, cols, x.entries[off : off + rows * cols]))
        out.append(RepMap(M, N, blocks))
    return out


def hom_dim(M: Rep, N: Rep) -> int:
    A, _, _ = _hom_system(M, N)
    return A.cols - A.rank()


def end_dim(M: Rep) -> int:
    return hom_dim(M, M)


def ext1_dim(M: Rep, N: Rep) -> int:
    """dim Ext^1(M, N), the cokernel of the Hom system."""
    A, _, _ = _hom_system(M, N)
    return A.cokernel_dim()


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
    A, _, _ = _hom_system(M, N)
    return A.rank() == A.cols


def is_exceptional(X: Rep) -> bool:
    """True when X is indecomposable, rigid, and has trivial endomorphisms.

    dim End(X) = 1 already forces indecomposability, and conversely an
    indecomposable rigid module over these ground fields has endomorphism
    ring equal to the ground field, so the test never needs a decomposition.
    Both dimensions come from one rank r of the Hom system of (X, X): End
    is cols - r and Ext^1 is rows - r.
    """
    A, _, _ = _hom_system(X, X)
    return A.rows == A.cols - 1 and A.rank() == A.rows


def ext1_space(M: Rep, N: Rep):
    """A basis of Ext^1(M, N) as unit cocycles.

    Each cocycle is a dict sending an arrow name a: u -> w to a matrix of
    shape N_w x M_u; the classes of these cocycles form a basis of the
    cokernel of the Hom system.
    """
    A, row_index, _ = _hom_system(M, N)
    f = M.field
    pivot_rows = set(A.column_space_pivot_rows())
    q = M.quiver
    out = []
    for r, (ai, i, j) in enumerate(row_index):
        if r in pivot_rows:
            continue
        z = {}
        for a in q.arrows:
            z[a.name] = Mat.zeros(f, N.dim(a.target), M.dim(a.source))
        a = q.arrows[ai]
        rows, cols = N.dim(a.target), M.dim(a.source)
        ent = [f.zero] * (rows * cols)
        ent[i * cols + j] = f.one
        z[a.name] = Mat(f, rows, cols, ent)
        out.append(z)
    return out


@dataclass(frozen=True)
class ShortExactSeq:
    sub: Rep
    middle: Rep
    quotient: Rep
    include: RepMap
    project: RepMap

    def verify(self) -> bool:
        """Exactness: include injective, project surjective, composite zero."""
        for v in self.sub.quiver.vertices():
            inc = self.include.block(v)
            prj = self.project.block(v)
            if inc.rank() != inc.cols or prj.rank() != prj.rows:
                return False
            if not prj.mul(inc).is_zero():
                return False
            if inc.cols + prj.rows != self.middle.dim(v):
                return False
        return True


def extension_from_cocycle(M: Rep, N: Rep, cocycle) -> ShortExactSeq:
    """Realize a cocycle in Ext^1(M, N) as 0 -> N -> E -> M -> 0.

    The middle term places N first: E_v = N_v (+) M_v with arrow matrices
    [[N_a, z_a], [0, M_a]].
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
    E = Rep(q, f, dims, maps)
    inc_blocks = []
    prj_blocks = []
    for v in q.vertices():
        nv, mv = N.dim(v), M.dim(v)
        inc_blocks.append(Mat.identity(f, nv).vstack(Mat.zeros(f, mv, nv)))
        prj_blocks.append(Mat.zeros(f, mv, nv).hstack(Mat.identity(f, mv)))
    include = RepMap(N, E, inc_blocks)
    project = RepMap(E, M, prj_blocks)
    return ShortExactSeq(sub=N, middle=E, quotient=M, include=include, project=project)


def _subrep(M: Rep, bases, unstable: str):
    """The subrepresentation spanned by the columns of bases[v - 1] at each v.

    Returns (S, inclusion S -> M); raises AssertionError(unstable) when
    some arrow map moves a span outside the span at its target.
    """
    maps = []
    for ai, a in enumerate(M.quiver.arrows):
        moved = M.maps[ai].mul(bases[a.source - 1])
        x = bases[a.target - 1].solve_matrix(moved)
        if x is None:
            raise AssertionError(unstable)
        maps.append(x)
    S = Rep(M.quiver, M.field, [b.cols for b in bases], maps)
    return S, RepMap(S, M, bases)


def kernel_rep(f: RepMap):
    """The kernel subrepresentation: returns (K, inclusion K -> source)."""
    M = f.source
    fld = M.field
    bases = []
    for v in M.quiver.vertices():
        cols = f.block(v).kernel_basis()
        ent = [c.entries[i] for i in range(M.dim(v)) for c in cols]
        bases.append(Mat(fld, M.dim(v), len(cols), ent))
    return _subrep(M, bases, "kernel is not an invariant subspace")


def cokernel_rep(f: RepMap):
    """The cokernel representation: returns (C, projection target -> C).

    Coordinates on C_v are the unit vectors of the target at the rows where
    the image has no echelon pivot.
    """
    N = f.target
    fld = N.field
    q = N.quiver
    proj_blocks = []
    sec_blocks = []
    cdims = []
    for v in q.vertices():
        fv = f.block(v)
        pivot = set(fv.column_space_pivot_rows())
        sel = [r for r in range(N.dim(v)) if r not in pivot]
        s = len(sel)
        cdims.append(s)
        unit = Mat(
            fld,
            N.dim(v),
            s,
            [
                fld.one if r == sel[t] else fld.zero
                for r in range(N.dim(v))
                for t in range(s)
            ],
        )
        sec_blocks.append(unit)
        aug = fv.hstack(unit)
        sol = aug.solve_matrix(Mat.identity(fld, N.dim(v)))
        if sol is None:
            raise AssertionError("image plus complement fails to span the target")
        ent = []
        for r in range(fv.cols, fv.cols + s):
            ent.extend(sol.row(r))
        proj_blocks.append(Mat(fld, s, N.dim(v), ent))
    cmaps = []
    for ai, a in enumerate(q.arrows):
        m = proj_blocks[a.target - 1].mul(N.maps[ai]).mul(sec_blocks[a.source - 1])
        cmaps.append(m)
    C = Rep(q, fld, cdims, cmaps)
    return C, RepMap(N, C, proj_blocks)


def coordinates_in_hom_basis(f: RepMap, basis):
    """Coordinates of f in a given Hom basis, or None if f is outside it."""
    if not basis:
        return [] if f.is_zero() else None
    fld = f.source.field
    cols = [b.flatten() for b in basis]
    # one column per basis map; RepMap entries are already canonical
    ent = tuple(x for row in zip(*cols) for x in row)
    A = Mat._make(fld, len(cols[0]), len(cols), ent)
    x = A.solve(Mat.column(fld, list(f.flatten())))
    if x is None:
        return None
    return [x.entry(i, 0) for i in range(len(cols))]


# --- decomposition into indecomposables ---


def _combo(maps, coeffs):
    out = maps[0].scale(coeffs[0])
    for m, c in zip(maps[1:], coeffs[1:]):
        out = out.add(m.scale(c))
    return out


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
    return RepMap(M, M, blocks)


def _minpoly_of_endo(e: RepMap):
    """Monic minimal polynomial of an endomorphism, low degree first."""
    M = e.source
    f = M.field
    powers = [identity_map(M)]
    nxt = e
    while True:
        x = coordinates_in_hom_basis(nxt, powers)
        if x is not None:
            return [f.neg(c) for c in x] + [f.one]
        if len(powers) > M.total_dim:
            raise AssertionError("minimal polynomial search ran past the dimension")
        powers.append(nxt)
        nxt = nxt.after(e)


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
        K, _ = kernel_rep(h)
        parts.append(K)
    if sum(p.total_dim for p in parts) != M.total_dim:
        raise AssertionError("generalized kernels fail to fill the module")
    return parts


# random combinations of the Hom basis tried after the basis maps and their
# products, before the indecomposability certificates
_RANDOM_CANDIDATES = 64


def _candidate_endos(basis, rng: random.Random, field: Field):
    for b in basis:
        yield b
    d = len(basis)
    pair_cap = 40
    count = 0
    for i in range(d):
        for j in range(d):
            if count >= pair_cap:
                break
            yield basis[i].after(basis[j])
            count += 1
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
    for r in ideal:
        for b in basis:
            for prod in (r.after(b), b.after(r)):
                if coordinates_in_hom_basis(prod, ideal) is None:
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

    Returns an idempotent RepMap, or True when provably none exists.
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


def _decompose_into(M: Rep, rng: random.Random, out: list, pending: list):
    """Append the summands of M to out; pending lists parts not yet split."""
    if M.total_dim == 0:
        return
    basis = hom_space(M, M)
    if len(basis) == 1:
        out.append(M)
        return
    top = 1
    for e in _candidate_endos(basis, rng, M.field):
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
        _decompose_into(part, rng, out, parts[i + 1 :] + pending)


def decompose(M: Rep, seed: int = 0):
    """Split M into indecomposable summands (with multiplicity).

    The output order is deterministic: sorted by total dimension, then by
    dimension vector. Raises UndecidedError instead of guessing when no
    splitting and no indecomposability certificate is found.
    """
    out = []
    _decompose_into(M, random.Random(seed), out, [])
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
            if g.after(f).is_isomorphism():
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

"""Perpendicular categories of exceptional modules.

For an exceptional module X over the path algebra of an acyclic quiver, the
full subcategory of modules Y with Hom(X, Y) = 0 = Ext^1(X, Y) is again the
module category of a hereditary algebra B with one vertex fewer. B is never
built abstractly: a PerpPresentation records the images of its
indecomposable projectives inside the ambient category together with
intertwiners realizing the arrows of its quiver, and modules travel in and
out through Hom functors (`transport_into_perp`) and projective
presentations (`lift_from_perp`).

Two branches produce the presentation, chosen by dimension vector: an
exceptional module is determined by its dimension vector, and the P_v of
an acyclic quiver have pairwise distinct ones, so X is isomorphic to P_v
exactly when dim X = dim P_v. Then the perpendicular category consists of
the representations vanishing at v, so the quiver is the induced subquiver
and the intertwiners are path concatenations. Otherwise the Bongartz
complement M (the middle term of the universal extension of X against
A = (+)_v P_v) decomposes into the n - 1 projectives of B, and the quiver
of B is read off from rad/rad^2 of the Hom category of its summands.

B depends on X alone, and a Jordan-Hoelder check peels the same few
modules over and over, so `perp_algebra` and `transport_into_perp` keep
bounded memos of their results (which are immutable). Exceptions are not
memoized: a bad input raises on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .exactlin import Field, Mat
from .quiver import Arrow, Quiver
from .repcat import (
    Rep,
    RepMap,
    _subrep,
    cokernel_rep,
    coordinates_in_hom_basis,
    decompose,
    direct_sum,
    distinct_summands,
    end_dim,
    ext1_dim,
    ext1_space,
    extension_from_cocycle,
    hom_space,
    is_exceptional,
    orthogonal,
    projective,
    zero_rep,
)

# One jh-verify run meets few distinct inputs (79 perpendicular categories
# on A_4 at bound 4); the bounds only keep a long-lived process from growing.
_PERP_MEMO_SIZE = 512
_TRANSPORT_MEMO_SIZE = 8192


def _column_basis(m: Mat) -> Mat:
    """The pivot columns of m: a deterministic basis of its column space."""
    pivots = m.transpose().column_space_pivot_rows()
    f = m.field
    ent = []
    for i in range(m.rows):
        row = m.row(i)
        for c in pivots:
            ent.append(row[c])
    return Mat(f, m.rows, len(pivots), ent)


def trace(X: Rep, M: Rep):
    """The trace of X in M: the sum of images of all maps X -> M.

    Returns (T, include) where T is the subrepresentation and include its
    inclusion into M; the trace is arrow-stable because images of
    intertwiners are.
    """
    if X.quiver != M.quiver or X.field != M.field:
        raise ValueError("trace endpoints live over different quivers or fields")
    f = M.field
    maps = hom_space(X, M)
    bases = []
    for v in M.quiver.vertices():
        stacked = Mat.zeros(f, M.dim(v), 0)
        for h in maps:
            stacked = stacked.hstack(h.block(v))
        bases.append(_column_basis(stacked))
    return _subrep(M, bases, "trace is not arrow-stable")


def universal_extension(X: Rep, R: Rep):
    """The universal extension 0 -> R -> M -> X^c -> 0 with c = ext1_dim(X, R).

    Stacks a full cocycle basis of Ext^1(X, R), so Ext^1(X, M) = 0: every
    self-extension against X has been used up. Returns (c, sequence).
    """
    if not is_exceptional(X):
        raise ValueError("universal extension needs an exceptional X")
    q = X.quiver
    f = X.field
    cocycles = ext1_space(X, R)
    c = len(cocycles)
    if c == 0:
        quot = zero_rep(q, f)
        zero_cocycle = {
            a.name: Mat.zeros(f, R.dim(a.target), 0) for a in q.arrows
        }
        return 0, extension_from_cocycle(quot, R, zero_cocycle)
    quot = direct_sum([X] * c)
    stacked = {
        a.name: reduce(Mat.hstack, [z[a.name] for z in cocycles]) for a in q.arrows
    }
    ses = extension_from_cocycle(quot, R, stacked)
    if ext1_dim(X, ses.middle) != 0:
        raise AssertionError("universal extension left extensions behind")
    return c, ses


def free_module(quiver: Quiver, field: Field) -> Rep:
    """A = P_1 (+) ... (+) P_n, the algebra as a module over itself."""
    return direct_sum([projective(quiver, field, v) for v in quiver.vertices()])


def _bongartz_parts(X: Rep):
    """(c, [E_1, ..., E_n]) with E_v the universal extension of P_v by X.

    Ext^1(X, -) is additive, so the universal extension of X against
    A = (+)_v P_v is the direct sum of the E_v (E_v = P_v when
    Ext^1(X, P_v) = 0), and c = ext1_dim(X, A). When c > 0 each E_v is
    checked to lie in the perpendicular category of X.
    """
    q = X.quiver
    f = X.field
    c = 0
    parts = []
    for v in q.vertices():
        cv, ses = universal_extension(X, projective(q, f, v))
        c += cv
        parts.append(ses.middle)
    if c > 0:
        for E in parts:
            if not orthogonal(X, E):
                raise AssertionError(
                    "Bongartz middle term escaped the perpendicular category"
                )
    return c, parts


def bongartz_complement(X: Rep) -> Rep:
    """The middle term M of the universal extension of X against A.

    M lies in the perpendicular category of X and M (+) X is tilting; only
    defined for non-projective X (a projective X has no extensions against
    A, and its perpendicular category comes from vertex deletion instead).
    """
    c, parts = _bongartz_parts(X)
    if c == 0:
        raise ValueError(
            "X is projective (no extensions against the free module); "
            "use the vertex-deletion branch of perp_algebra"
        )
    return direct_sum(parts)


@dataclass(frozen=True, eq=False)
class PerpPresentation:
    """The perpendicular category presented inside the ambient one.

    radical_generators is parallel to algebra_quiver.arrows: the generator
    for an arrow a: j -> j' is an ambient intertwiner
    projectives_in_ambient[j'-1] -> projectives_in_ambient[j-1], acting on
    transported modules by precomposition.
    """

    source: Rep
    branch: str
    algebra_quiver: Quiver
    projectives_in_ambient: tuple
    radical_generators: tuple

    def generator(self, arrow_name: str) -> RepMap:
        for a, g in zip(self.algebra_quiver.arrows, self.radical_generators):
            if a.name == arrow_name:
                return g
        raise KeyError(f"no arrow named {arrow_name!r}")


def _inflate_rep(sub: Rep, ambient: Quiver, v: int) -> Rep:
    """View a representation of ambient.delete_vertex(v) as an ambient one."""
    f = sub.field
    dims = []
    k = 0
    for w in ambient.vertices():
        if w == v:
            dims.append(0)
        else:
            dims.append(sub.dims[k])
            k += 1
    maps = {}
    for a in ambient.arrows:
        if a.source == v or a.target == v:
            maps[a.name] = Mat.zeros(f, dims[a.target - 1], dims[a.source - 1])
        else:
            maps[a.name] = sub.arrow_map(a.name)
    return Rep(ambient, f, dims, maps)


def _inflate_map(f_sub: RepMap, src: Rep, tgt: Rep, v: int) -> RepMap:
    blocks = []
    k = 0
    for w in src.quiver.vertices():
        if w == v:
            blocks.append(Mat.zeros(src.field, 0, 0))
        else:
            blocks.append(f_sub.blocks[k])
            k += 1
    return RepMap(src, tgt, blocks)


def _path_prepend_map(q: Quiver, field: Field, a: Arrow) -> RepMap:
    """The map P_{a.target} -> P_{a.source} prepending the arrow to paths."""
    from .repcat import _paths_from

    src = projective(q, field, a.target)
    tgt = projective(q, field, a.source)
    paths_src = _paths_from(q, a.target)
    paths_tgt = _paths_from(q, a.source)
    index = {w: {p: i for i, p in enumerate(paths_tgt[w])} for w in q.vertices()}
    blocks = []
    for w in q.vertices():
        rows, cols = tgt.dim(w), src.dim(w)
        ent = [field.zero] * (rows * cols)
        for j, p in enumerate(paths_src[w]):
            i = index[w][(a.name,) + p]
            ent[i * cols + j] = field.one
        blocks.append(Mat(field, rows, cols, ent))
    return RepMap(src, tgt, blocks)


def _rad_square_span(parts, hom_tables, j: int, jp: int):
    """Composites M_{j'} -> M_t -> M_j through every intermediate t."""
    span = []
    for t in range(len(parts)):
        if t == j or t == jp:
            continue
        for h in hom_tables[jp][t]:
            for g in hom_tables[t][j]:
                span.append(g.after(h))
    return span


def hom_category_presentation(parts):
    """Quiver and arrow generators of the Hom category of ordered summands.

    Vertex t stands for parts[t-1]; an arrow j -> j' carries a generator in
    Hom(parts[j'-1], parts[j-1]) whose class spans rad/rad^2. A path-count
    check certifies the result is hereditary: dim Hom(M_{j'}, M_j) must
    equal the number of quiver paths j ~> j'.
    """
    m = len(parts)
    hom_tables = [[hom_space(parts[s], parts[t]) for t in range(m)] for s in range(m)]
    arrows = []
    generators = []
    for j in range(1, m + 1):
        for jp in range(1, m + 1):
            if j == jp:
                continue
            basis = hom_tables[jp - 1][j - 1]
            if not basis:
                continue
            span = _rad_square_span(parts, hom_tables, j - 1, jp - 1)
            # keep the basis maps independent of rad^2 and of the ones before
            rows = [g.flatten() for g in span + basis]
            for i in Mat.from_rows(parts[0].field, rows).column_space_pivot_rows():
                if i >= len(span):
                    arrows.append(Arrow(f"r{len(arrows) + 1}", j, jp))
                    generators.append(basis[i - len(span)])
    quiver = Quiver(m, arrows)
    for j in range(1, m + 1):
        counts = quiver.path_counts_from(j)
        for jp in range(1, m + 1):
            want = len(hom_tables[jp - 1][j - 1])
            if counts[jp - 1] != want:
                raise AssertionError(
                    f"Hom category is not hereditary as presented: "
                    f"{counts[jp - 1]} paths {j}->{jp} against Hom dimension {want}"
                )
    return quiver, tuple(generators)


@lru_cache(maxsize=_PERP_MEMO_SIZE)
def perp_algebra(X: Rep) -> PerpPresentation:
    """Present the perpendicular category of an exceptional module.

    X is projective exactly when dim X = dim P_v for some vertex v (X is
    exceptional, hence determined by its dimension vector). Then delete v
    (labels inherited) and embed the subquiver's projectives as ambient
    representations vanishing there. Otherwise the distinct summands of the
    Bongartz complement are the projectives, with the quiver read off their
    Hom category. Either way the algebra has exactly n - 1 vertices. Equal
    inputs get the same presentation object back.
    """
    if not is_exceptional(X):
        raise ValueError("perpendicular algebra needs an exceptional module")
    q = X.quiver
    f = X.field
    at = next((v for v in q.vertices() if q.path_counts_from(v) == X.dims), None)
    if at is not None:
        subq = q.delete_vertex(at)
        projs = tuple(
            _inflate_rep(projective(subq, f, j), q, at) for j in subq.vertices()
        )
        gens = []
        for a in subq.arrows:
            inner = _path_prepend_map(subq, f, a)
            gens.append(
                _inflate_map(inner, projs[a.target - 1], projs[a.source - 1], at)
            )
        return PerpPresentation(
            source=X,
            branch="projective",
            algebra_quiver=subq,
            projectives_in_ambient=projs,
            radical_generators=tuple(gens),
        )
    _, extensions = _bongartz_parts(X)
    # the complement's summands, ordered as decompose orders them
    parts = sorted(
        (p for E in extensions for p in decompose(E)),
        key=lambda r: (r.total_dim, r.dims),
    )
    distinct = distinct_summands(parts)
    if len(distinct) != q.n - 1:
        raise AssertionError(
            f"Bongartz complement has {len(distinct)} distinct summands, "
            f"want {q.n - 1}"
        )
    for d in distinct:
        if end_dim(d) != 1:
            raise AssertionError("Bongartz summand is not exceptional")
    quiver, gens = hom_category_presentation(distinct)
    return PerpPresentation(
        source=X,
        branch="bongartz",
        algebra_quiver=quiver,
        projectives_in_ambient=tuple(distinct),
        radical_generators=gens,
    )


def _transport_unchecked(pres: PerpPresentation, Y: Rep) -> Rep:
    q = pres.algebra_quiver
    f = Y.field
    bases = [hom_space(pj, Y) for pj in pres.projectives_in_ambient]
    dims = [len(b) for b in bases]
    maps = []
    for a, r in zip(q.arrows, pres.radical_generators):
        src_basis = bases[a.source - 1]
        tgt_basis = bases[a.target - 1]
        cols = []
        for fmap in src_basis:
            coords = coordinates_in_hom_basis(fmap.after(r), tgt_basis)
            if coords is None:
                raise AssertionError("precomposition left the Hom space")
            cols.append(coords)
        ent = []
        for i in range(len(tgt_basis)):
            for col in cols:
                ent.append(col[i])
        maps.append(Mat(f, len(tgt_basis), len(src_basis), ent))
    return Rep(q, f, dims, maps)


@lru_cache(maxsize=_TRANSPORT_MEMO_SIZE)
def transport_into_perp(pres: PerpPresentation, Y: Rep) -> Rep:
    """Re-express a perpendicular module over the perpendicular algebra.

    Vertex j carries Hom(M_j, Y); arrows act by precomposition with the
    radical generators. The dimension bookkeeping of the projective
    presentation is asserted:

        dim Y = sum_j z_j dim M_j - sum_{a: j->j'} z_j dim M_{j'}

    with z_j = dim Hom(M_j, Y). PerpPresentation compares by identity, so
    the memo hits for the presentations `perp_algebra` hands out again.
    """
    X = pres.source
    if not orthogonal(X, Y):
        raise ValueError("module is not perpendicular to the source")
    Z = _transport_unchecked(pres, Y)
    total = sum(
        Z.dim(j) * pres.projectives_in_ambient[j - 1].total_dim
        for j in pres.algebra_quiver.vertices()
    )
    for a in pres.algebra_quiver.arrows:
        total -= Z.dim(a.source) * pres.projectives_in_ambient[a.target - 1].total_dim
    if total != Y.total_dim:
        raise AssertionError(
            f"transport dimension contract failed: {total} != {Y.total_dim}"
        )
    return Z


def lift_from_perp(pres: PerpPresentation, Z: Rep) -> Rep:
    """Inverse of transport: realize a module of the perpendicular algebra.

    Builds the cokernel of the lifted projective presentation

        (+)_{a: j->j'} M_{j'} (x) k^{z_j}  ->  (+)_j M_j (x) k^{z_j}  ->  Y

    where the map has component r_a into the j-slot and -Z_a (x) id into
    the j'-slot.
    """
    if Z.quiver != pres.algebra_quiver:
        raise ValueError("module lives over the wrong algebra quiver")
    bq = pres.algebra_quiver
    f = Z.field
    ambient = pres.source.quiver
    tgt_list = []
    tgt_slot = {}
    for j in bq.vertices():
        tgt_slot[j] = len(tgt_list)
        tgt_list.extend([pres.projectives_in_ambient[j - 1]] * Z.dim(j))
    src_list = []
    src_slot = {}
    for ai, a in enumerate(bq.arrows):
        src_slot[ai] = len(src_list)
        src_list.extend([pres.projectives_in_ambient[a.target - 1]] * Z.dim(a.source))
    if not tgt_list:
        return zero_rep(ambient, f)
    tgt_sum = direct_sum(tgt_list)
    if not src_list:
        return tgt_sum
    src_sum = direct_sum(src_list)
    blocks = []
    for v in ambient.vertices():
        rows = tgt_sum.dim(v)
        cols = src_sum.dim(v)
        ent = [f.zero] * (rows * cols)
        tgt_off = []
        off = 0
        for rep in tgt_list:
            tgt_off.append(off)
            off += rep.dim(v)
        src_off = []
        off = 0
        for rep in src_list:
            src_off.append(off)
            off += rep.dim(v)
        for ai, a in enumerate(bq.arrows):
            r = pres.radical_generators[ai]
            za = Z.maps[ai]
            mjp = pres.projectives_in_ambient[a.target - 1]
            for i in range(Z.dim(a.source)):
                cbase = src_off[src_slot[ai] + i]
                # component r_a into the source-vertex slot, copy i
                rb = r.block(v)
                rbase = tgt_off[tgt_slot[a.source] + i]
                for ii in range(rb.rows):
                    for jj in range(rb.cols):
                        ent[(rbase + ii) * cols + (cbase + jj)] = rb.entry(ii, jj)
                # component -Z_a[t, i] id into the target-vertex slots
                for t in range(Z.dim(a.target)):
                    coeff = f.neg(za.entry(t, i))
                    if coeff == 0:
                        continue
                    rbase = tgt_off[tgt_slot[a.target] + t]
                    for ii in range(mjp.dim(v)):
                        ent[(rbase + ii) * cols + (cbase + ii)] = coeff
        blocks.append(Mat(f, rows, cols, ent))
    phi = RepMap(src_sum, tgt_sum, blocks)
    Y, _ = cokernel_rep(phi)
    back = _transport_unchecked(pres, Y)
    if back.dims != Z.dims:
        raise AssertionError(
            f"lift round trip changed the dimension vector: {back.dims} != {Z.dims}"
        )
    return Y

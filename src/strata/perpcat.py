"""Perpendicular categories of exceptional modules.

For an exceptional module X over the path algebra of an acyclic quiver, the
full subcategory of modules Y with Hom(X, Y) = 0 = Ext^1(X, Y) is again the
module category of a hereditary algebra B with one vertex fewer. B is never
built abstractly: a PerpPresentation records the images of its
indecomposable projectives inside the ambient category, and modules travel
in and out through `transport_into_perp` and `lift_from_perp`.

Three constructions produce the presentation, chosen by dimension vector:
an exceptional module is determined by its dimension vector, and the P_v
of an acyclic quiver have pairwise distinct ones, so X is isomorphic to
P_v exactly when dim X = dim P_v, and to the simple S_v exactly when
dim X = e_v. `branch` names what the projectives are, not how they were
found.

- X = P_v (branch "projective"). Hom(P_v, Y) = Y_v and Ext^1(P_v, -) = 0,
  so the perpendicular category is the modules vanishing at v and vertex
  deletion is restriction: B is the path algebra of the induced subquiver,
  transport restricts to it and lift extends by zero (Geigle-Lenzing 1991).
- X = S_v, v not a sink (branch "bongartz"; at a sink S_v = P_v). The
  projective resolution 0 -> (+)_{b: v->w} P_w -> P_v -> S_v -> 0 makes
  Hom(S_v, Y) and Ext^1(S_v, Y) the kernel and cokernel of
  Y_v -> (+)_b Y_{t(b)}, so the perpendicular category is the modules on
  which that map is bijective: mod kQ_v for Q_v the quiver q with v
  contracted, whose arrows are those avoiding v and one arrow u -> w for
  each pair a: u -> v, b: v -> w (Geigle-Lenzing 1991; Schofield 1991).
  Transport restricts Y to the other vertices and composes Y_b Y_a for
  each such pair; lift is coinduction, with Y_v = (+)_b Z_{t(b)}. The
  projectives are the coinduced projectives of Q_v, numbered and their
  arrows named as the Hom-category route below would, so they are the
  distinct Bongartz summands up to isomorphism; no universal extension,
  no decomposition and no Hom system is built.
- Any other X (branch "bongartz"). The Bongartz complement M (the middle
  term of the universal extension of X against A = (+)_v P_v; `repcat`
  builds both) has exactly n - 1 distinct summands (M (+) X is tilting),
  the projectives of B; the quiver of B is read off from rad/rad^2 of the
  Hom category of those summands with an intertwiner for each arrow, and
  modules travel through the Hom functor and the cokernel of a lifted
  projective presentation.

`_complement_summands` finds the summands of M with multiplicity, and is
the one route to them: `perp_algebra` keeps one per dimension vector and
the `bongartz` verb reports them all. A part E_v of dims m d with
<d, d> = 1 is X^m, X the exceptional module of dims d: with m = 1 it is
indecomposable as it stands (M is rigid, so dim End(E_v) is the Euler
form <dim E_v, dim E_v> = 1), and with m >= 2 one Hom(X, E_v) system
certifies it (`repcat._isotypic`). The rest are decomposed only until
n - 1 distinct summands are known, and each part left over is placed in
their additive closure without decomposing it (`repcat._in_add`),
because a rigid module is determined by its dimension vector (Kac 1980;
Happel-Ringel 1982).

B depends on X alone, and a Jordan-Hoelder check peels the same few
modules over and over, so `perp_algebra` and `transport_into_perp` memoize
their results (which are immutable) and keep every one for the life of the
process. Exceptions are not memoized: a bad input raises on every call.
The other process-lifetime memos are `repcat._hom_rank`, one Hom-system
rank per pair of modules; `repcat._hom_space_memo`, one Hom basis per
pair, which `hom_space` copies into a new list for the Hom categories and
transports here; `repcat._projectives`, the P_v of one (quiver, field),
for the Bongartz parts and the vertex-deletion and contraction branches;
and `exceptional._closure`, one mutation closure per (quiver, field) at
the largest bound asked for, which the sequence enumeration and the
isotypic parts here share. The vertex-deletion and contraction
constructions record their vertex on the presentation, so transport and
lift dispatch on it instead of searching dimension vectors again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import gcd

from .exactlin import Mat
from .exceptional import _closure
from .quiver import Arrow, Quiver
from .repcat import (
    Rep,
    RepMap,
    _check_summand_dims,
    _cokernel,
    _hom_rank,
    _in_add,
    _isotypic,
    _projectives,
    coordinates_in_hom_basis,
    decompose,
    direct_sum,
    distinct_summands,
    hom_space,
    orthogonal,
    universal_extension,
    zero_rep,
)


def _bongartz_parts(X: Rep):
    """[E_1, ..., E_n] with E_v the universal extension of P_v by X.

    Ext^1(X, -) is additive, so the universal extension of X against
    A = (+)_v P_v is the direct sum of the E_v. Raises ValueError when X
    is not exceptional or is projective (no extensions against A). Each
    E_v comes from the checked `universal_extension`, whose checks add no
    Hom system: the rank of (X, X) that certifies X exceptional is
    memoized, and its Ext^1(X, E_v) = 0 reads the same memoized rank as
    the check below that each E_v lies in the perpendicular category of X.
    """
    universal = [universal_extension(X, p) for p in _projectives(X.quiver, X.field)]
    if not any(c for c, _ in universal):
        raise ValueError(
            "X is projective (no extensions against the free module); "
            "use the vertex-deletion branch of perp_algebra"
        )
    parts = [E for _, E in universal]
    for E in parts:
        if not orthogonal(X, E):
            raise AssertionError(
                "Bongartz middle term escaped the perpendicular category"
            )
    return parts


def bongartz_complement(X: Rep) -> Rep:
    """The middle term M of the universal extension of X against A.

    M lies in the perpendicular category of X and M (+) X is tilting; only
    defined for non-projective X (a projective X has no extensions against
    A, and its perpendicular category comes from vertex deletion instead).
    """
    return direct_sum(_bongartz_parts(X))


@dataclass(frozen=True, eq=False)
class PerpPresentation:
    """The perpendicular category presented inside the ambient one.

    projectives_in_ambient[j-1] is the image of P_j of algebra_quiver.
    radical_generators are filled only where transport is by the Hom
    functor (the Bongartz complement of a non-simple X, and "summands" for
    a cut, an exceptional sequence whose members are the P_j in order).
    They run parallel to algebra_quiver.arrows: the generator for an arrow
    a: j -> j' is an ambient intertwiner projectives_in_ambient[j'-1] ->
    projectives_in_ambient[j-1], acting on transported modules by
    precomposition. The other two constructions leave the tuple empty and
    record their vertex instead; transport and lift dispatch on it.
    deleted_vertex is v when the source is P_v ("projective" branch): its
    modules are restrictions. contracted_vertex is v when the source is
    the simple S_v of a vertex that is not a sink: vertex j of
    algebra_quiver is vertex vertex_map[j-1] of the ambient quiver, and
    arrow k is the path arrow_words[k] of the ambient quiver, the
    positions in its arrows of one arrow avoiding v or of a: u -> v then
    b: v -> w. Each is None (or empty) on the other constructions.

    source_end_dim is dim End(source), which `perp_algebra` reads off the
    same Hom system that certifies the source exceptional, and
    source_label names that endomorphism ring (`_source_label`), so a
    stratification takes each peeled member's factor from here. A cut's
    presentation ("summands") leaves both None: its source is never peeled.
    """

    source: Rep
    branch: str
    algebra_quiver: Quiver
    projectives_in_ambient: tuple
    radical_generators: tuple
    source_end_dim: int | None = None
    source_label: str | None = None
    deleted_vertex: int | None = None
    contracted_vertex: int | None = None
    vertex_map: tuple = ()
    arrow_words: tuple = ()


def _source_label(q: Quiver, x: Rep) -> str:
    """The name of the stratification factor End(x) of a module x over q."""
    if x.total_dim == 1:
        v = next(v for v in q.vertices() if x.dim(v) == 1)
        return f"End(S_{q.label(v)})"
    return f"End(X) for X = dim {tuple(x.dims)}"


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
    equal the number of quiver paths j ~> j'. Returns None when it fails.
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
        if any(counts[t] != len(hom_tables[t][j - 1]) for t in range(m)):
            return None
    return quiver, tuple(generators)


def _check_euler_gram(quiver: Quiver, projectives) -> None:
    """Require <dim P'_i, dim P'_j> to be the number of paths j ~> i of quiver.

    projectives[j-1] is the image P'_j of P_j of quiver. The embedding is
    exact, fully faithful and keeps Ext^1 (Geigle-Lenzing 1991), so the
    ambient Euler form of two of them is dim Hom(P'_i, P'_j), which the
    path count gives. Raises ValueError naming the first pair that fails.
    """
    q = projectives[0].quiver
    for j in quiver.vertices():
        counts = quiver.path_counts_from(j)
        for i in quiver.vertices():
            e = q.euler_form(projectives[i - 1].dims, projectives[j - 1].dims)
            if e != counts[i - 1]:
                raise ValueError(
                    f"<dim P'_{i}, dim P'_{j}> = {e}, but the presented quiver "
                    f"has {counts[i - 1]} paths {j} ~> {i}"
                )


def _deleted_vertex(X: Rep):
    """The vertex v with dim X = dim P_v, or None.

    The P_v have pairwise distinct dimension vectors, so for an exceptional
    X this finds v exactly when X is isomorphic to P_v.
    """
    q = X.quiver
    return next((v for v in q.vertices() if q.path_counts_from(v) == X.dims), None)


def _restrict(Y: Rep, v: int, subq: Quiver) -> Rep:
    """Y on subq = Y.quiver with v deleted: drop Y_v and the arrows at v."""
    maps = [m for a, m in zip(Y.quiver.arrows, Y.maps) if v not in (a.source, a.target)]
    return Rep(subq, Y.field, Y.dims[: v - 1] + Y.dims[v:], maps)


def _extend_by_zero(Z: Rep, q: Quiver, v: int) -> Rep:
    """Z, a module over q with v deleted, as a module over q vanishing at v."""
    f = Z.field
    dims = Z.dims[: v - 1] + (0,) + Z.dims[v - 1 :]
    kept = iter(Z.maps)
    maps = [
        Mat.zeros(f, dims[a.target - 1], dims[a.source - 1])
        if v in (a.source, a.target)
        else next(kept)
        for a in q.arrows
    ]
    return Rep(q, f, dims, maps)


def _contracted_presentation(X: Rep, v: int, **recorded) -> PerpPresentation:
    """The presentation of the perpendicular category of X = S_v, v not a
    sink: mod kQ_v for Q_v the quiver of X with v contracted.

    A path of q between two vertices other than v passes v at most once
    (q is acyclic), entering by some a and leaving by some b, so it is one
    path of Q_v; the coinduced P_u of Q_v therefore has dims the path
    counts of q from u, and at v the sum of those to the heads of the
    arrows out of v. The vertices are numbered by those dims, sorted by
    (total_dim, dims) as the Bongartz summands are, and the arrows named
    r1, r2, ... in (source, target) order, as `hom_category_presentation`
    names them; arrows with the same ends keep the order of their words.
    The projectives' Euler form must give the path counts of the result
    (`_check_euler_gram`).
    """
    q, f = X.quiver, X.field
    arrows = q.arrows
    outs = [k for k, b in enumerate(arrows) if b.source == v]

    dims = {}
    for u in q.vertices():
        if u != v:
            counts = q.path_counts_from(u)
            at_v = sum(counts[arrows[k].target - 1] for k in outs)
            dims[u] = counts[: v - 1] + (at_v,) + counts[v:]
    vertex_map = tuple(sorted(dims, key=lambda u: (sum(dims[u]), dims[u])))
    new = {u: j for j, u in enumerate(vertex_map, 1)}
    words = [(i,) for i, c in enumerate(arrows) if v not in (c.source, c.target)]
    words += [(i, k) for i, a in enumerate(arrows) if a.target == v for k in outs]

    def ends(word):
        return new[arrows[word[0]].source], new[arrows[word[-1]].target]

    arrow_words = tuple(sorted(words, key=ends))
    bq = Quiver(q.n - 1, [Arrow(f"r{k}", *ends(w)) for k, w in enumerate(arrow_words, 1)])
    projectives = tuple(
        _coinduce(p, q, v, vertex_map, arrow_words) for p in _projectives(bq, f)
    )
    _check_euler_gram(bq, projectives)
    return PerpPresentation(
        source=X,
        branch="bongartz",
        algebra_quiver=bq,
        projectives_in_ambient=projectives,
        radical_generators=(),
        contracted_vertex=v,
        vertex_map=vertex_map,
        arrow_words=arrow_words,
        **recorded,
    )


def _contract(Y: Rep, pres: PerpPresentation) -> Rep:
    """Y on the contracted quiver: Y at vertex_map, Y_c or Y_b Y_a per word."""
    maps = []
    for word in pres.arrow_words:
        m = Y.maps[word[0]]
        for i in word[1:]:
            m = Y.maps[i].mul(m)
        maps.append(m)
    return Rep(pres.algebra_quiver, Y.field, [Y.dim(u) for u in pres.vertex_map], maps)


def _coinduce(Z: Rep, q: Quiver, v: int, vertex_map, arrow_words) -> Rep:
    """Z, a module over q with v contracted, as a module over q.

    Y_u = Z_u for u != v, Y_v = (+)_b Z_{t(b)} over the arrows b out of v
    in their order, Y_b the projection onto b's summand, Y_a for a: u -> v
    the stack of the Z_{[ba]}, and Z_c on the arrows c avoiding v. So
    Y_v -> (+)_b Y_{t(b)} is the identity and `_contract` gives Z back.
    """
    f = Z.field
    slot = {u: j for j, u in enumerate(vertex_map, 1)}
    arrow_of = {w: k for k, w in enumerate(arrow_words)}
    dims = [0 if u == v else Z.dim(slot[u]) for u in q.vertices()]
    offset = {}
    for k, b in enumerate(q.arrows):
        if b.source == v:
            offset[k] = dims[v - 1]
            dims[v - 1] += dims[b.target - 1]
    cols = dims[v - 1]
    maps = []
    for i, a in enumerate(q.arrows):
        if i in offset:
            rows = dims[a.target - 1]
            ent = [f.zero] * (rows * cols)
            for r in range(rows):
                ent[r * cols + offset[i] + r] = f.one
            maps.append(Mat._make(f, rows, cols, tuple(ent)))
        elif a.target == v:
            m = Mat.zeros(f, 0, dims[a.source - 1])
            for k in offset:
                m = m.vstack(Z.maps[arrow_of[i, k]])
            maps.append(m)
        else:
            maps.append(Z.maps[arrow_of[(i,)]])
    return Rep(q, f, dims, maps)


def _isotypic_split(E: Rep, known):
    """[X] * m when dim E = m d with d primitive and <d, d> = 1, else None.

    E is rigid, so dim End(E) = <dim E, dim E>. With m = 1 that is 1, and E
    is a summand as it stands: the answer is [E], from no Hom system and no
    closure lookup. For m >= 2, X is the summand of dims d in known, a
    {dims: summand} dict, or failing that the exceptional module of dims d
    from the mutation closure of `exceptional` (`_closure`, bound
    |d| = sum of d); None also when no exceptional module has dims d.
    Raises AssertionError when `repcat._isotypic(X, E)` fails: a rigid
    module is determined by its dimension vector, so only a broken E is
    not X^m.
    """
    q = E.quiver
    m = gcd(*E.dims)
    d = tuple(x // m for x in E.dims)
    if q.euler_form(d, d) != 1:
        return None
    if m == 1:
        return [E]
    X = known.get(d) or next(
        (r for r in _closure(q, E.field, sum(d)) if r.dims == d), None
    )
    if X is None:
        return None
    if not _isotypic(X, E):
        raise AssertionError(
            f"Bongartz part of dimension {E.dims} is not {m} copies of the "
            f"exceptional module of dimension {d}"
        )
    return [X] * m


def _complement_summands(extensions):
    """The indecomposable summands of the Bongartz parts, with multiplicity,
    sorted as `decompose` sorts.

    The Bongartz complement M is rigid with exactly n - 1 distinct
    summands (M (+) X is tilting), so the parts need not all be decomposed.
    The parts are visited smallest (total_dim, dims) first, and
    `_isotypic_split` settles each part of dims m d with <d, d> = 1 where
    an exceptional X of dims d exists: a part with m = 1 is a summand as it
    stands, and one with m >= 2 is m copies of X, by one Hom(X, E) system
    and no decomposition. A part of dims d comes before any of dims m d, so
    X is that part when there is one. The other parts are decomposed, in
    the same order, only until n - 1 distinct dimension vectors are known.
    Every part left over must pass `repcat._in_add` against the summands
    found: it is rigid and dim E = sum_d m_d dim d with integers m_d >= 0,
    so E = (+)_d d^{m_d}, whose copies join the result, because a rigid
    module is determined by its dimension vector (Kac, 1980; Happel-Ringel,
    1982). That needs the found summands pairwise Ext-orthogonal, which
    `perp_algebra` certifies afterwards: n - 1 of them, dim Hom between
    them equal to path counts of a quiver (`hom_category_presentation`),
    and the Euler form equal to the same path counts (`_check_euler_gram`),
    so every Ext^1 among them vanishes. The copies for the parts left over
    come last among equal dimension vectors, so `distinct_summands` of the
    result keeps a found summand.

    Before any part left over is placed, the summands found must pass
    `repcat._check_summand_dims`: they are real roots, distinct ones pair
    non-negatively under the Euler form, and they add up to the parts they
    come from. The copies placed by `_in_add` add up to their part by
    construction, so the result adds up to dim M. Raises AssertionError
    naming the condition, or the certificate, that fails.
    """
    q = extensions[0].quiver
    found = {}
    known = {}
    rest = []
    order = sorted(
        range(len(extensions)), key=lambda v: (extensions[v].total_dim, extensions[v].dims)
    )
    for v in order:
        split = _isotypic_split(extensions[v], known)
        if split is None:
            rest.append(v)
        else:
            found[v] = split
            known.setdefault(split[0].dims, split[0])
    while rest and len(known) < q.n - 1:
        v = rest.pop(0)
        found[v] = decompose(extensions[v])
        for p in found[v]:
            known.setdefault(p.dims, p)
    parts = [p for v in sorted(found) for p in found[v]]
    parts.sort(key=lambda r: (r.total_dim, r.dims))
    want = tuple(map(sum, zip(*(extensions[v].dims for v in found))))
    _check_summand_dims(q, parts, want, "Bongartz", "the parts'")
    distinct = distinct_summands(parts)
    for v in rest:
        m = _in_add(extensions[v], distinct)
        if m is None:
            raise AssertionError(
                f"Bongartz part of dimension {extensions[v].dims} is not in add "
                "of the summands found"
            )
        parts += [d for d, k in zip(distinct, m) for _ in range(k)]
    parts.sort(key=lambda r: (r.total_dim, r.dims))
    return parts


def _hom_presentation(source: Rep, branch: str, parts, **recorded):
    """The PerpPresentation of the Hom category of parts, in their order,
    or None when `hom_category_presentation` finds it not hereditary. The
    parts' Euler form must give the path counts of its quiver
    (`_check_euler_gram`); recorded holds the fields only `perp_algebra` fills.
    """
    presented = hom_category_presentation(parts)
    if presented is None:
        return None
    quiver, gens = presented
    _check_euler_gram(quiver, parts)
    return PerpPresentation(source, branch, quiver, tuple(parts), gens, **recorded)


@cache
def perp_algebra(X: Rep) -> PerpPresentation:
    """Present the perpendicular category of an exceptional module.

    One rank of the Hom system of (X, X) both certifies X exceptional
    (Ext^1(X, X) = 0 and End(X) = k) and gives dim End(X), which the
    presentation records. X is projective exactly when dim X = dim P_v for
    some vertex v (X is exceptional, hence determined by its dimension
    vector). Then the quiver is q with v deleted (labels inherited) and its
    projectives are extended by zero to q. Otherwise, when X is the simple
    S_v (dims e_v, v not a sink), the quiver is q with v contracted and its
    projectives are coinduced to q (`_contracted_presentation`). Otherwise
    the distinct summands of the Bongartz complement
    (`_complement_summands`) are the projectives, with the quiver and the
    radical generators read off their Hom category; the summand count, the
    path-count check of the Hom category and the projectives' Euler form
    (`_check_euler_gram`) certify the summands pairwise Ext-orthogonal,
    which `_complement_summands` assumes. In all three cases the algebra
    has exactly n - 1 vertices. Equal inputs get the same presentation object back.
    """
    rows, cols, rank = _hom_rank(X, X)
    # Ext^1(X, X) is rows - rank and End(X) is cols - rank, as in is_exceptional
    if rank != rows or cols - rank != 1:
        raise ValueError("perpendicular algebra needs an exceptional module")
    q = X.quiver
    f = X.field
    recorded = {"source_end_dim": cols - rank, "source_label": _source_label(q, X)}
    v = _deleted_vertex(X)
    if v is not None:
        subq = q.delete_vertex(v)
        return PerpPresentation(
            source=X,
            branch="projective",
            algebra_quiver=subq,
            projectives_in_ambient=tuple(
                _extend_by_zero(p, q, v) for p in _projectives(subq, f)
            ),
            radical_generators=(),
            deleted_vertex=v,
            **recorded,
        )
    if X.total_dim == 1:
        return _contracted_presentation(X, X.dims.index(1) + 1, **recorded)
    distinct = distinct_summands(_complement_summands(_bongartz_parts(X)))
    if len(distinct) != q.n - 1:
        raise AssertionError(
            f"Bongartz complement has {len(distinct)} distinct summands, "
            f"want {q.n - 1}"
        )
    pres = _hom_presentation(X, "bongartz", distinct, **recorded)
    if pres is None:
        raise AssertionError("Hom category of the Bongartz summands is not hereditary")
    return pres


def _transport_unchecked(pres: PerpPresentation, Y: Rep) -> Rep:
    q = pres.algebra_quiver
    if pres.deleted_vertex is not None:
        return _restrict(Y, pres.deleted_vertex, q)
    if pres.contracted_vertex is not None:
        return _contract(Y, pres)
    f = Y.field
    bases = [hom_space(pj, Y) for pj in pres.projectives_in_ambient]
    dims = [len(b) for b in bases]
    maps = []
    for a, r in zip(q.arrows, pres.radical_generators):
        src_basis = bases[a.source - 1]
        if not src_basis:
            maps.append(Mat.zeros(f, dims[a.target - 1], 0))
            continue
        moved = [fmap.after(r) for fmap in src_basis]
        coords = coordinates_in_hom_basis(moved, bases[a.target - 1])
        if coords is None:
            raise AssertionError("precomposition left the Hom space")
        maps.append(coords)
    return Rep(q, f, dims, maps)


@cache
def transport_into_perp(pres: PerpPresentation, Y: Rep) -> Rep:
    """Re-express a perpendicular module over the perpendicular algebra.

    For X = P_v, Y is perpendicular exactly when Y_v = 0, and the module is
    its restriction to q with v deleted. For X = S_v with v contracted it
    is the restriction to the other vertices, with Y_b Y_a on the arrow of
    each pair a: u -> v, b: v -> w. On the Hom-presented branches vertex j
    carries Hom(M_j, Y) and arrows act by precomposition with the radical
    generators. In every case z_j = dim Hom(M_j, Y) must be the Euler form
    <dim M_j, dim Y>, because M_j is projective in the perpendicular
    category, which keeps Ext^1 (Geigle-Lenzing 1991), and the dimension
    bookkeeping of the projective presentation is asserted:

        dim Y = sum_j z_j dim M_j - sum_{a: j->j'} z_j dim M_{j'}

    PerpPresentation compares by identity, so the memo hits for the
    presentations `perp_algebra` hands out again.
    """
    X = pres.source
    if Y.quiver != X.quiver or Y.field != X.field:
        raise ValueError("module lives over another quiver or field than the source")
    if pres.deleted_vertex is not None:
        perpendicular = Y.dim(pres.deleted_vertex) == 0
    else:
        perpendicular = orthogonal(X, Y)
    if not perpendicular:
        raise ValueError("module is not perpendicular to the source")
    Z = _transport_unchecked(pres, Y)
    q = X.quiver
    for j, p in enumerate(pres.projectives_in_ambient, 1):
        e = q.euler_form(p.dims, Y.dims)
        if Z.dim(j) != e:
            raise AssertionError(
                f"transport Euler check failed at vertex {j}: "
                f"{Z.dim(j)} != <dim P'_{j}, dim Y> = {e}"
            )
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


def _cokernel_lift(pres: PerpPresentation, Z: Rep) -> Rep:
    """The cokernel of Z's projective presentation, lifted along pres."""
    bq = pres.algebra_quiver
    f = Z.field
    projs = pres.projectives_in_ambient
    # target slot (j, t): copy t of M_j; source slot (k, i): copy i of
    # M_{j'} for the arrow k: j -> j'
    tgt_slots = [(j, t) for j in bq.vertices() for t in range(Z.dim(j))]
    src_slots = [
        (k, i) for k, a in enumerate(bq.arrows) for i in range(Z.dim(a.source))
    ]
    if not tgt_slots:
        return zero_rep(pres.source.quiver, f)
    tgt_sum = direct_sum([projs[j - 1] for j, _ in tgt_slots])
    if not src_slots:
        return tgt_sum
    src_projs = [projs[bq.arrows[k].target - 1] for k, _ in src_slots]
    src_sum = direct_sum(src_projs)
    row_of = {slot: r for r, slot in enumerate(tgt_slots)}
    # (row slot, column slot, the blocks of the ambient map placed there)
    pieces = []
    for c, (k, i) in enumerate(src_slots):
        a = bq.arrows[k]
        pieces.append((row_of[a.source, i], c, pres.radical_generators[k].blocks))
        for t in range(Z.dim(a.target)):
            coeff = f.neg(Z.maps[k].entry(t, i))
            if coeff != 0:
                scaled = [Mat.identity(f, d).scale(coeff) for d in src_projs[c].dims]
                pieces.append((row_of[a.target, t], c, scaled))
    blocks = []
    for v in pres.source.quiver.vertices():
        row_off = [0, *accumulate(projs[j - 1].dim(v) for j, _ in tgt_slots)]
        col_off = [0, *accumulate(p.dim(v) for p in src_projs)]
        cols = col_off[-1]
        ent = [f.zero] * (row_off[-1] * cols)
        for r, c, piece in pieces:
            m = piece[v - 1]
            for ii in range(m.rows):
                start = (row_off[r] + ii) * cols + col_off[c]
                ent[start : start + m.cols] = m.row(ii)
        blocks.append(Mat(f, row_off[-1], cols, ent))
    return _cokernel(RepMap(src_sum, tgt_sum, blocks))[0]


def lift_from_perp(pres: PerpPresentation, Z: Rep) -> Rep:
    """Inverse of transport: realize a module of the perpendicular algebra.

    For X = P_v this is extension by zero, and for X = S_v with v
    contracted it is coinduction (`_coinduce`). On the Hom-presented
    branches it is the cokernel of the lifted projective presentation

        (+)_{a: j->j'} M_{j'} (x) k^{z_j}  ->  (+)_j M_j (x) k^{z_j}  ->  Y

    where the map has component r_a into the j-slot and -Z_a (x) id into
    the j'-slot. In every case transporting Y back must give dim Z again.
    """
    if Z.quiver != pres.algebra_quiver:
        raise ValueError("module lives over the wrong algebra quiver")
    if Z.field != pres.source.field:
        raise ValueError("module lives over another field than the source")
    q = pres.source.quiver
    if pres.deleted_vertex is not None:
        Y = _extend_by_zero(Z, q, pres.deleted_vertex)
    elif pres.contracted_vertex is not None:
        Y = _coinduce(Z, q, pres.contracted_vertex, pres.vertex_map, pres.arrow_words)
    else:
        Y = _cokernel_lift(pres, Z)
    back = _transport_unchecked(pres, Y)
    if back.dims != Z.dims:
        raise AssertionError(
            f"lift round trip changed the dimension vector: {back.dims} != {Z.dims}"
        )
    return Y

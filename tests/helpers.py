"""Shared seeded generators for the test suite."""

import random

from strata.exactlin import Mat
from strata.quiver import Arrow, Quiver, topological_sort


def random_mat(rng, field, rows, cols, span=3):
    ent = [field.coerce(rng.randrange(-span, span + 1)) for _ in range(rows * cols)]
    return Mat(field, rows, cols, ent)


def random_acyclic_quiver(rng, max_vertices=5, max_extra_arrows=3):
    """Connected-ish acyclic quiver: a random spanning chain plus extras.

    Arrows always point from a lower to a higher vertex number, which keeps
    the quiver acyclic by construction.
    """
    n = rng.randint(1, max_vertices)
    arrows = []
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        arrows.append(Arrow(f"a{len(arrows)}", u, v))
    for _ in range(rng.randint(0, max_extra_arrows)):
        if n < 2:
            break
        u = rng.randint(1, n - 1)
        w = rng.randint(u + 1, n)
        arrows.append(Arrow(f"a{len(arrows)}", u, w))
    return Quiver(n, arrows)


def is_acyclic(vertex_count, arrows):
    """True when the arrows on vertices 1..vertex_count form no cycle."""
    edges = [(a.source - 1, a.target - 1) for a in arrows]
    return len(topological_sort(vertex_count, edges)) == vertex_count


def path_count_total(q):
    """Total number of paths of q (= dim of its path algebra)."""
    return sum(sum(q.path_counts_from(v)) for v in q.vertices())


def random_rep(rng, q, field, max_dim=3, span=2):
    from strata.repcat import Rep

    dims = tuple(rng.randint(0, max_dim) for _ in q.vertices())
    maps = {}
    for a in q.arrows:
        maps[a.name] = random_mat(rng, field, dims[a.target - 1], dims[a.source - 1], span)
    return Rep(q, field, dims, maps)


def random_invertible(rng, field, n, span=2, tries=64):
    for _ in range(tries):
        m = random_mat(rng, field, n, n, span)
        if m.is_invertible():
            return m
    return Mat.identity(field, n)


def arrow_map(M, name):
    """The matrix of M on the arrow called name."""
    for a, m in zip(M.quiver.arrows, M.maps):
        if a.name == name:
            return m
    raise KeyError(f"no arrow named {name!r}")


def conjugate_rep(rng, M, span=2):
    """Isomorphic copy of M under random base change at every vertex."""
    from strata.repcat import Rep

    q, field = M.quiver, M.field
    g = {v: random_invertible(rng, field, M.dims[v - 1], span) for v in q.vertices()}
    maps = {}
    for a in q.arrows:
        maps[a.name] = g[a.target].mul(arrow_map(M, a.name)).mul(g[a.source].inverse())
    return Rep(q, field, M.dims, maps)


def interval_rep(field, n, lo, hi):
    """The interval module over the linear A_n quiver: 1-dimensional on
    vertices lo..hi with identity arrow maps inside the interval."""
    from strata.quiver import linear_quiver
    from strata.repcat import Rep

    q = linear_quiver(n)
    dims = [1 if lo <= v <= hi else 0 for v in q.vertices()]
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        if rows * cols == 1:
            maps[a.name] = Mat(field, 1, 1, [field.one])
        else:
            maps[a.name] = Mat.zeros(field, rows, cols)
    return Rep(q, field, dims, maps)


def dense_hom_matrix(M, N):
    """The Hom system Phi: (f_v) -> (f_w M_a - N_a f_u) of M and N as a dense
    Mat, the oracle for the sparse rows that `repcat` eliminates.

    Returns (A, row_index, col_off): row r is entry (i, j) of arrow
    a: u -> w for row_index[r] = (arrow index, i, j), and f_v[s, t] is
    column col_off[v - 1] + s * dim M_v + t.
    """
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
    return Mat(f, len(row_index), total_cols, ent), row_index, col_off


def kernel_by_solving(f):
    """The kernel of a RepMap f as (K, bases), the oracle for `repcat._kernel`:
    the kernel bases of the blocks, and each arrow's restriction x found by
    solving B_w x = M_a B_u."""
    from strata.repcat import Rep

    M = f.source
    fld = M.field
    bases = []
    for v in M.quiver.vertices():
        cols = f.block(v).kernel_basis()
        ent = [c.entries[i] for i in range(M.dim(v)) for c in cols]
        bases.append(Mat(fld, M.dim(v), len(cols), ent))
    maps = []
    for ai, a in enumerate(M.quiver.arrows):
        moved = M.maps[ai].mul(bases[a.source - 1])
        x = bases[a.target - 1].solve_matrix(moved)
        if x is None:
            raise AssertionError("kernel is not an invariant subspace")
        maps.append(x)
    return Rep(M.quiver, fld, [b.cols for b in bases], maps), bases


def combo_by_folding(maps, coeffs):
    """sum_i coeffs[i] * maps[i], the oracle for `repcat._combo`: each block
    scaled and added in turn, and the result built by the checked
    RepMap(...)."""
    from strata.repcat import RepMap

    blocks = []
    for v in maps[0].source.quiver.vertices():
        total = maps[0].block(v).scale(coeffs[0])
        for m, c in zip(maps[1:], coeffs[1:]):
            total = total.add(m.block(v).scale(c))
        blocks.append(total)
    return RepMap(maps[0].source, maps[0].target, blocks)


def minpoly_by_solving(e):
    """The monic minimal polynomial of an endomorphism e, low degree first,
    the oracle for `repcat._minpoly_of_endo`: each power e^k is solved for
    in the span of 1, e, ..., e^(k-1) by a fresh elimination. The zero
    module gets [0, 1]."""
    from strata.repcat import coordinates_in_hom_basis, identity_map

    M = e.source
    f = M.field
    powers = [identity_map(M)]
    nxt = e
    while True:
        x = coordinates_in_hom_basis([nxt], powers)
        if x is not None:
            return [f.neg(c) for c in x.entries] + [f.one]
        if len(powers) > M.total_dim:
            raise AssertionError("minimal polynomial search ran past the dimension")
        powers.append(nxt)
        nxt = nxt.after(e)


def cokernel_by_solving(f):
    """The cokernel of a RepMap f as (C, blocks), the oracle for
    `repcat._cokernel`: unit vectors at the rows off the column-space pivots
    of f_v complete the image, and the projection P_v onto them is the unit
    part of the solution of [f_v | unit] X = I."""
    from strata.repcat import Rep

    N = f.target
    fld = N.field
    q = N.quiver
    proj_blocks = []
    sec_blocks = []
    for v in q.vertices():
        fv = f.block(v)
        pivot = set(fv.column_space_pivot_rows())
        sel = [r for r in range(N.dim(v)) if r not in pivot]
        s = len(sel)
        unit = Mat(
            fld,
            N.dim(v),
            s,
            [fld.one if r == sel[t] else fld.zero for r in range(N.dim(v)) for t in range(s)],
        )
        sec_blocks.append(unit)
        sol = fv.hstack(unit).solve_matrix(Mat.identity(fld, N.dim(v)))
        if sol is None:
            raise AssertionError("image plus complement fails to span the target")
        ent = []
        for r in range(fv.cols, fv.cols + s):
            ent.extend(sol.row(r))
        proj_blocks.append(Mat(fld, s, N.dim(v), ent))
    cmaps = []
    for ai, a in enumerate(q.arrows):
        cmaps.append(proj_blocks[a.target - 1].mul(N.maps[ai]).mul(sec_blocks[a.source - 1]))
    return Rep(q, fld, [b.rows for b in proj_blocks], cmaps), proj_blocks


def complete_sequences_by_lists(reps, n):
    """Every complete exceptional sequence of n members drawn from reps, in
    lexicographic index order: a depth-first search over a list-of-lists
    pair table, the oracle for the bitmask search of
    `exceptional.enumerate_complete_exceptional_sequences`."""
    from strata.repcat import orthogonal

    m = len(reps)
    ok = [[orthogonal(reps[j], reps[i]) for j in range(m)] for i in range(m)]
    sequences = []

    def extend(prefix):
        if len(prefix) == n:
            sequences.append(tuple(reps[i] for i in prefix))
            return
        for j in range(m):
            if j in prefix:
                continue
            if all(ok[i][j] for i in prefix):
                extend(prefix + [j])

    extend([])
    return sequences


def bongartz_summands_by_decompose(X):
    """The indecomposable summands of the Bongartz parts of X with every part
    decomposed, sorted as `decompose` sorts: the oracle for
    `perpcat._complement_summands`, which decomposes only some of the parts
    whose Euler form is not 1."""
    from strata.perpcat import _bongartz_parts
    from strata.repcat import decompose

    return sorted(
        (p for E in _bongartz_parts(X) for p in decompose(E)),
        key=lambda r: (r.total_dim, r.dims),
    )


def order_into_exceptional_sequence(summands):
    """Arrange pairwise non-isomorphic exceptionals into a sequence, if possible.

    Puts an edge X -> Y whenever Hom(X, Y) or Ext^1(X, Y) is nonzero (X
    must then come before Y) and sorts topologically, breaking ties by
    smallest input index. Returns None when the constraint graph has a
    cycle; raises when a summand is not exceptional. A topological order
    leaves no nonzero Hom or Ext^1 from a later member to an earlier one,
    so the result is an exceptional sequence without a further check.
    """
    from strata.quiver import topological_sort
    from strata.repcat import is_exceptional, orthogonal

    xs = list(summands)
    for x in xs:
        if not is_exceptional(x):
            raise ValueError(
                f"summand with dimension vector {x.dims} is not exceptional"
            )
    m = len(xs)
    edges = [
        (a, b)
        for a in range(m)
        for b in range(m)
        if a != b and not orthogonal(xs[a], xs[b])
    ]
    order = topological_sort(m, edges)
    if len(order) != m:
        return None
    return tuple(xs[i] for i in order)

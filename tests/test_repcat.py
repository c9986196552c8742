import hashlib
import random
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from strata import repcat
from strata.exactlin import GF, QQ, Field, Mat, _sparse_rows
from strata.quiver import (
    Arrow,
    ParseError,
    Quiver,
    kronecker_quiver,
    linear_quiver,
    parse_quiver_text,
)
from strata.repcat import (
    Rep,
    RepMap,
    coordinates_in_hom_basis,
    decompose,
    direct_sum,
    end_dim,
    ext1_dim,
    ext1_space,
    extension_from_cocycle,
    hom_dim,
    hom_space,
    identity_map,
    is_exceptional,
    is_isomorphic,
    orthogonal,
    parse_rep_blocks,
    projective,
    simple,
    zero_rep,
)

from helpers import (
    arrow_map,
    cokernel_by_solving,
    combo_by_folding,
    conjugate_rep,
    dense_hom_matrix,
    hom_matrix_by_definition,
    interval_rep,
    kernel_by_solving,
    minpoly_by_solving,
    random_acyclic_quiver,
    random_rep,
)

A2 = linear_quiver(2)
A3 = linear_quiver(3)
K2 = kronecker_quiver()


def test_rep_validation():
    with pytest.raises(ValueError):
        Rep(A2, QQ, (1,), [])
    with pytest.raises(ValueError):
        Rep(A2, QQ, (1, 1), [Mat.zeros(QQ, 2, 1)])  # wrong shape
    with pytest.raises(ValueError):
        Rep(A2, QQ, (1, 1), {"b": Mat.zeros(QQ, 1, 1)})  # missing arrow a
    with pytest.raises(ValueError):
        Rep(A2, QQ, (1, 1), [Mat.zeros(GF(5), 1, 1)])  # wrong field
    with pytest.raises(ValueError, match="must be an integer"):
        Rep(A2, QQ, (1.7, 0), [Mat.zeros(QQ, 0, 1)])  # int() would read 1


def test_repmap_validation():
    p1 = projective(A2, QQ, 1)
    one = Mat(QQ, 1, 1, [1])
    with pytest.raises(ValueError, match="do not commute"):
        RepMap(p1, p1, [one, Mat(QQ, 1, 1, [2])])
    with pytest.raises(ValueError, match="expected 2 blocks"):
        RepMap(p1, p1, [one])
    with pytest.raises(ValueError, match="shape"):
        RepMap(p1, p1, [one, Mat.zeros(QQ, 1, 2)])
    with pytest.raises(ValueError, match="disagree"):
        RepMap(p1, projective(A2, GF(5), 1), [one, one])  # another field
    with pytest.raises(ValueError, match="disagree"):
        RepMap(p1, simple(A3, QQ, 1), [one, one])  # another quiver


@pytest.mark.parametrize("make,attr", [
    (lambda: Mat(QQ, 1, 2, [1, 2]), "rows"),
    (lambda: Quiver(2, [Arrow("a", 1, 2)]), "arrows"),
    (lambda: projective(A2, QQ, 1), "dims"),
    (lambda: identity_map(projective(A2, QQ, 1)), "blocks"),
], ids=["Mat", "Quiver", "Rep", "RepMap"])
def test_value_types(make, attr):
    """Immutable, equal and hash-equal when built alike, never equal to
    an object of another type."""
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    for name in (attr, "note"):
        with pytest.raises(FrozenInstanceError):
            setattr(a, name, getattr(b, attr))
        with pytest.raises(FrozenInstanceError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")
    assert a != getattr(a, attr)
    assert a != (a,) and a != object()


def _rebuilt(M):
    """An equal copy of M that shares no Mat or tuple with it."""
    maps = [Mat(m.field, m.rows, m.cols, list(m.entries)) for m in M.maps]
    return Rep(M.quiver, M.field, list(M.dims), maps)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(5)]), st.integers(0, 2**32 - 1))
def test_rep_hash_is_cached_and_not_compared(field, seed):
    """A Rep caches its content hash in `_h`, which takes no part in == or
    repr: equal modules built separately are equal whether or not either
    was hashed, hash alike, and get the same perpendicular presentation."""
    from dataclasses import fields

    from strata.exceptional import enumerate_exceptional
    from strata.perpcat import perp_algebra

    rng = random.Random(seed)
    q = random_acyclic_quiver(rng, max_vertices=4, max_extra_arrows=2)
    a = random_rep(rng, q, field, max_dim=2)
    b = _rebuilt(a)
    assert a is not b and a._h is None and b._h is None
    h = hash(a)
    assert a._h == h and b._h is None
    assert a == b and b == a and repr(a) == repr(b)
    assert "_h" not in repr(a) and str(h) not in repr(a)
    assert hash(a) == h == hash(b) == hash((a.quiver, a.field, a.dims, a.maps))
    assert [f.name for f in fields(Rep) if f.compare] == ["quiver", "field", "dims", "maps"]
    reps = enumerate_exceptional(rng.choice([A3, K2]), field, 4).reps
    x = rng.choice(reps)
    assert perp_algebra(x) is perp_algebra(_rebuilt(x))


def test_equal_values_built_apart_compare_and_hash_alike():
    """Field, Quiver, Mat and Rep answer == at once on identity and
    otherwise compare values: separately built equal values are equal and
    hash alike whether or not either was hashed first. A Quiver caches its
    hash in `_h`, which is in neither == nor repr."""
    from dataclasses import fields

    assert Field(0) == QQ and QQ == Field(0) and hash(Field(0)) == hash(QQ)
    assert Field(5) == GF(5) and hash(Field(5)) == hash(GF(5))
    assert QQ != GF(5) and GF(2) != GF(5) and QQ != 0 and GF(5) != 5
    arrows = [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)]
    for hash_first in (True, False):
        q, r = Quiver(3, arrows), Quiver(3, [Arrow(*a) for a in arrows])
        assert q._h is None and r._h is None
        if hash_first:
            h = hash(q)
            assert q._h == h and r._h is None
        assert q == r and r == q and q is not r and repr(q) == repr(r)
        assert hash(q) == hash(r) == hash((q.n, q.arrows, q.labels))
        assert "_h" not in repr(q) and str(hash(q)) not in repr(q)
    assert Quiver(3, arrows, labels="xyz") != q and Quiver(3, arrows[:2]) != q
    assert [f.name for f in fields(Quiver) if f.compare] == ["n", "arrows", "labels"]
    half = Fraction(1, 2)
    for field in (QQ, GF(5)):
        a = Mat(field, 2, 2, [1, half, -3, 0])
        b = Mat(Field(field.characteristic), 2, 2, [field.coerce(x) for x in (1, half, -3, 0)])
        assert a == b and hash(a) == hash(b) and a.entries == b.entries
        assert a != Mat(field, 2, 2, [1, half, -3, 1]) and a != a.transpose()
        assert a != Mat(field, 1, 4, a.entries) and a != Mat(field, 4, 1, a.entries)
    # entries equal as numbers, fields different
    ints = [1, 2, 0, 4]
    assert Mat(QQ, 2, 2, ints).entries == Mat(GF(5), 2, 2, ints).entries
    assert Mat(QQ, 2, 2, ints) != Mat(GF(5), 2, 2, ints)
    assert Mat(QQ, 1, 2, [half, 1]) != Mat(QQ, 1, 2, [Fraction(1, 3), 1])
    for field in (QQ, GF(5)):
        for bad in (1.5, "1", None, [1]):
            with pytest.raises(TypeError, match="cannot coerce"):
                Mat(field, 1, 2, [1, bad])
    with pytest.raises(ValueError, match="must be an integer"):
        Mat(QQ, 1.5, 1, [1])
    with pytest.raises(ValueError, match="negative"):
        Mat(QQ, -1, 0, [])
    with pytest.raises(ValueError, match="expected 2 entries"):
        Mat(QQ, 1, 2, [1])
    q = Quiver(3, arrows)
    for field in (QQ, GF(5)):
        x = Rep(q, field, (1, 2, 1), {"a": Mat(field, 2, 1, [1, half]),
                                       "b": Mat(field, 1, 2, [0, 3]),
                                       "c": Mat(field, 1, 1, [2])})
        y = Rep(Quiver(3, arrows), Field(field.characteristic), [1, 2, 1],
                [Mat(field, m.rows, m.cols, list(m.entries)) for m in x.maps])
        assert x == y and hash(y) == hash(x) and y.quiver is not x.quiver
        assert hom_dim(x, y) == hom_dim(y, x) == end_dim(x)


def test_simple_and_projective_shapes():
    s1 = simple(A2, QQ, 1)
    assert s1.dims == (1, 0)
    p1 = projective(A2, QQ, 1)
    assert p1.dims == (1, 1)
    assert arrow_map(p1, "a1") == Mat(QQ, 1, 1, [1])
    # at a sink the projective is the simple
    assert projective(A2, QQ, 2) == simple(A2, QQ, 2)
    assert projective(A3, QQ, 1).dims == (1, 1, 1)
    pk = projective(K2, QQ, 1)
    assert pk.dims == (1, 2)
    assert arrow_map(pk, "a") == Mat(QQ, 2, 1, [1, 0])
    assert arrow_map(pk, "b") == Mat(QQ, 2, 1, [0, 1])


def test_hom_oracles_a2():
    s1, s2, p1 = simple(A2, QQ, 1), simple(A2, QQ, 2), projective(A2, QQ, 1)
    assert hom_dim(p1, s1) == 1
    assert hom_dim(p1, s2) == 0
    assert hom_dim(s2, p1) == 1
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, s1) == 0
    assert end_dim(p1) == 1
    basis = hom_space(s2, p1)
    assert len(basis) == 1
    assert not basis[0].is_zero()


def test_hom_from_projective_matches_vertex_dimension():
    # Hom(P_v, M) has dimension dim M_v; pins down the module convention
    rng = random.Random(5)
    for field in (QQ, GF(5)):
        for _ in range(10):
            q = random_acyclic_quiver(rng, max_vertices=4)
            m = random_rep(rng, q, field, max_dim=3)
            for v in q.vertices():
                assert hom_dim(projective(q, field, v), m) == m.dim(v)


def test_ext_oracles():
    s1, s2 = simple(A2, QQ, 1), simple(A2, QQ, 2)
    assert ext1_dim(s1, s2) == 1
    assert ext1_dim(s2, s1) == 0
    assert ext1_dim(s1, s1) == 0
    k1, k2 = simple(K2, QQ, 1), simple(K2, QQ, 2)
    assert ext1_dim(k1, k2) == 2
    assert ext1_dim(k2, k1) == 0


def test_first_argument_projective_has_no_ext():
    rng = random.Random(6)
    for _ in range(8):
        q = random_acyclic_quiver(rng, max_vertices=4)
        m = random_rep(rng, q, QQ, max_dim=2)
        for v in q.vertices():
            assert ext1_dim(projective(q, QQ, v), m) == 0


def test_euler_identity_random():
    rng = random.Random(7)
    for field in (QQ, GF(5)):
        for _ in range(15):
            q = random_acyclic_quiver(rng, max_vertices=4)
            m = random_rep(rng, q, field, max_dim=3)
            n = random_rep(rng, q, field, max_dim=3)
            lhs = hom_dim(m, n) - ext1_dim(m, n)
            assert lhs == q.euler_form(m.dims, n.dims)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["QQ", "GF2", "GF5"])
def test_orthogonal_matches_hom_and_ext(field):
    rng = random.Random(11)
    verdicts = set()
    for _ in range(80):
        q = random_acyclic_quiver(rng, max_vertices=4)
        m = random_rep(rng, q, field, max_dim=2)
        n = random_rep(rng, q, field, max_dim=2)
        want = hom_dim(m, n) == 0 and ext1_dim(m, n) == 0
        assert orthogonal(m, n) == want
        verdicts.add(want)
    assert verdicts == {True, False}


# non-integer entries, so that clearing the rows of denominators is exercised
RATIONAL_ENTRIES = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))


def _rational_rep(rng, q, max_dim=3):
    dims = [rng.randint(0, max_dim) for _ in q.vertices()]
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        maps[a.name] = Mat(QQ, rows, cols, [rng.choice(RATIONAL_ENTRIES) for _ in range(rows * cols)])
    return Rep(q, QQ, dims, maps)


def _unit_rows(X, Y, cocycles, row_index):
    """The row of the dense Hom system where each unit cocycle has its 1."""
    q = X.quiver
    out = []
    for z in cocycles:
        (unit,) = [
            (ai, i, j)
            for ai, a in enumerate(q.arrows)
            for i in range(Y.dim(a.target))
            for j in range(X.dim(a.source))
            if z[a.name].entry(i, j)
        ]
        assert z[q.arrows[unit[0]].name].entry(*unit[1:]) == X.field.one
        out.append(row_index.index(unit))
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["QQ", "GF2", "GF5"])
def test_sparse_hom_system_matches_dense_oracle(field):
    """Every answer of the sparse Hom system equals the dense Phi's."""
    rng = random.Random(23)
    seen = Counter()
    for _ in range(40):
        q = random_acyclic_quiver(rng, max_vertices=4)
        if field.is_rational:
            M, N = _rational_rep(rng, q), _rational_rep(rng, q)
        else:
            M, N = random_rep(rng, q, field), random_rep(rng, q, field)
        P = conjugate_rep(rng, projective(q, field, rng.randint(1, q.n)))
        for k, (X, Y) in enumerate(((M, N), (N, M), (M, M), (P, P), (P, M))):
            A, row_index, col_off = dense_hom_matrix(X, Y)
            rank = A.rank()
            assert repcat._hom_system(X, Y)[0] == _sparse_rows(
                field, [A.row(r) for r in range(A.rows)]
            )
            if k == 1:
                # Ext^1 first, so that it fills the memoized rank for hom_dim
                assert ext1_dim(X, Y) == A.rows - rank
            assert hom_dim(X, Y) == A.cols - rank
            assert ext1_dim(X, Y) == A.rows - rank
            want = [
                [
                    Mat(field, Y.dim(v), X.dim(v),
                        x.entries[col_off[v - 1] : col_off[v - 1] + Y.dim(v) * X.dim(v)])
                    for v in q.vertices()
                ]
                for x in A.kernel_basis()
            ]
            assert [list(h.blocks) for h in hom_space(X, Y)] == want
            ortho = rank == A.cols == A.rows
            assert orthogonal(X, Y) == ortho
            pivots = set(A.column_space_pivot_rows())
            units = _unit_rows(X, Y, ext1_space(X, Y), row_index)
            assert units == [r for r in range(A.rows) if r not in pivots]
            if X is Y:
                exc = A.cols - rank == 1 and A.rows == rank
                assert is_exceptional(X) == exc
                seen["exceptional", exc] += 1
            seen["orthogonal", ortho] += 1
            seen["hom"] += bool(want)
            seen["ext"] += bool(units)
            seen["fraction"] += any(
                getattr(x, "denominator", 1) != 1 for m in X.maps + Y.maps for x in m.entries
            )
    # every verdict and both kinds of basis occur
    assert all(seen[k, b] for k in ("exceptional", "orthogonal") for b in (True, False))
    assert seen["hom"] and seen["ext"]
    assert bool(seen["fraction"]) == field.is_rational


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_hom_system_matches_phi_from_its_definition(field):
    """The sparse rows of `_hom_system` span the row space of Phi built from
    f_w M_a - N_a f_u by matrix products, one row per row of Phi, on pairs
    with zero-dimensional vertices and arrows whose blocks are empty on one
    side or both. A quiver or field mismatch raises ValueError."""
    rng = random.Random(31)
    seen = Counter()
    for _ in range(60):
        q = random_acyclic_quiver(rng, max_vertices=4)
        M, N = random_rep(rng, q, field, max_dim=2), random_rep(rng, q, field, max_dim=2)
        for X, Y in ((M, N), (N, M), (M, M)):
            A = hom_matrix_by_definition(X, Y)
            rows, col_off, cols = repcat._hom_system(X, Y)
            S = Mat(field, len(rows), cols,
                    [row.get(c, 0) for row in rows for c in range(cols)])
            assert (S.rows, S.cols) == (A.rows, A.cols)
            rank = A.rank()
            assert S.rank() == rank == S.vstack(A).rank()
            assert hom_dim(X, Y) == cols - rank and ext1_dim(X, Y) == len(rows) - rank
            for a in q.arrows:
                sides = (Y.dim(a.target) == 0, X.dim(a.source) == 0)
                seen[sides] += 1
            seen["zero vertex"] += 0 in X.dims
    # blocks empty on the N side, the M side, both sides and neither occur
    assert all(seen[s] for s in ((True, False), (False, True), (True, True), (False, False)))
    assert seen["zero vertex"]
    other = GF(3) if field.is_rational else QQ
    M = projective(A3, field, 1)
    for N in (projective(A3, other, 1), projective(linear_quiver(2), field, 1)):
        with pytest.raises(ValueError, match="different quivers or fields"):
            repcat._hom_system(M, N)
        with pytest.raises(ValueError, match="different quivers or fields"):
            hom_dim(N, M)


def test_one_hom_system_per_pair(monkeypatch):
    """hom_dim, ext1_dim and orthogonal of a pair, and is_exceptional and
    end_dim of (X, X), share one memoized rank; a mismatched pair is not
    memoized and raises on every call."""
    repcat._hom_rank.cache_clear()
    built = Counter()
    system = repcat._hom_system
    monkeypatch.setattr(
        repcat, "_hom_system", lambda M, N: built.update([(M, N)]) or system(M, N)
    )
    for field in (QQ, GF(5)):
        M, N = (
            Rep(K2, field, (1, 1), [Mat(field, 1, 1, (field.one,)),
                                    Mat(field, 1, 1, (field.coerce(lam),))])
            for lam in (0, 1)
        )
        # Euler form 0, so orthogonal has to rank the system
        assert K2.euler_form(M.dims, N.dims) == 0
        assert (hom_dim(M, N), ext1_dim(M, N), orthogonal(M, N)) == (0, 0, True)
        X = projective(K2, field, 1)
        assert (is_exceptional(X), end_dim(X)) == (True, 1)
        assert built == {(M, N): 1, (X, X): 1}
        built.clear()
    M, N = simple(A2, QQ, 1), simple(K2, QQ, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="different quivers"):
            hom_dim(M, N)
    assert built == {(M, N): 2}


def test_ext_space_matches_dim_and_realizes():
    s1, s2 = simple(A2, QQ, 1), simple(A2, QQ, 2)
    cocycles = ext1_space(s1, s2)
    assert len(cocycles) == ext1_dim(s1, s2) == 1
    e = extension_from_cocycle(s1, s2, cocycles[0])
    assert e.dims == (1, 1)
    assert is_isomorphic(e, projective(A2, QQ, 1))


def test_ext_space_kronecker_middles():
    k1, k2 = simple(K2, QQ, 1), simple(K2, QQ, 2)
    cocycles = ext1_space(k1, k2)
    assert len(cocycles) == 2
    middles = []
    for z in cocycles:
        e = extension_from_cocycle(k1, k2, z)
        middles.append((arrow_map(e, "a"), arrow_map(e, "b")))
    assert (Mat(QQ, 1, 1, [1]), Mat(QQ, 1, 1, [0])) in middles
    assert (Mat(QQ, 1, 1, [0]), Mat(QQ, 1, 1, [1])) in middles


def test_zero_cocycle_gives_split_extension():
    s1, s2 = simple(K2, QQ, 1), simple(K2, QQ, 2)
    z = {a.name: Mat.zeros(QQ, s2.dim(a.target), s1.dim(a.source)) for a in K2.arrows}
    e = extension_from_cocycle(s1, s2, z)
    assert is_isomorphic(e, direct_sum([s1, s2]))


def test_kernel_and_cokernel():
    p1, s1, s2 = projective(A2, QQ, 1), simple(A2, QQ, 1), simple(A2, QQ, 2)
    quot = RepMap(p1, s1, [Mat(QQ, 1, 1, [1]), Mat.zeros(QQ, 0, 1)])
    # the checked RepMap(...) confirms the inclusion and the projection
    k, bases = repcat._kernel(quot)
    inc = RepMap(k, p1, bases)
    assert k.dims == (0, 1)
    assert inc.source == k and inc.target == p1
    c, blocks = repcat._cokernel(inc)
    proj = RepMap(p1, c, blocks)
    assert c.dims == (1, 0)
    assert proj.block(1).rank() == 1
    # cokernel of the quotient map is zero
    cz, _ = repcat._cokernel(quot)
    assert cz.total_dim == 0
    assert is_isomorphic(k, s2)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["QQ", "GF2", "GF5"])
def test_kernel_and_cokernel_match_solving_oracles(field):
    """Kernels and cokernels read off one reduced echelon form per vertex
    equal, entry for entry, the ones found by a second elimination."""
    rng = random.Random(31)
    seen = Counter()

    def scalar():
        if field.is_rational:
            return field.coerce(rng.choice(RATIONAL_ENTRIES))
        return field.coerce(rng.randint(-3, 3))

    for _ in range(40):
        q = random_acyclic_quiver(rng, max_vertices=4)
        if field.is_rational:
            M, N = _rational_rep(rng, q), _rational_rep(rng, q)
        else:
            M, N = random_rep(rng, q, field), random_rep(rng, q, field)
        maps = [RepMap(M, N, [Mat.zeros(field, N.dim(v), M.dim(v)) for v in q.vertices()])]
        basis = hom_space(M, N)
        if basis:
            maps += basis[:2] + [repcat._combo(basis, [scalar() for _ in basis]) for _ in range(2)]
        for X in (M, N):
            ends = hom_space(X, X)
            if ends:  # End(X) = 0 only when X = 0
                e = repcat._combo(ends, [scalar() for _ in ends])
                maps += [e, repcat._eval_poly_on_endo(e, [scalar(), scalar(), field.one])]
        for f in maps:
            K, bases = repcat._kernel(f)
            C, blocks = repcat._cokernel(f)
            assert (K, bases) == kernel_by_solving(f)
            assert (C, blocks) == cokernel_by_solving(f)
            seen["zero vertex"] += 0 in f.source.dims or 0 in f.target.dims
            seen["proper kernel"] += 0 < K.total_dim < f.source.total_dim
            seen["proper cokernel"] += 0 < C.total_dim < f.target.total_dim
            seen["fraction"] += any(
                getattr(x, "denominator", 1) != 1 for m in K.maps + C.maps for x in m.entries
            )
    assert seen["zero vertex"] and seen["proper kernel"] and seen["proper cokernel"]
    assert bool(seen["fraction"]) == field.is_rational


def _noncommuting_map(field, target_dim):
    """A block family from M = (k, k^2), arrow e_1, to N = (0, k^target_dim)
    whose vertex-2 block does not commute with the arrow: f_1 = 0 and f_2
    kills e_2 but not e_1, so K_1 = k is moved by the arrow to e_1, which is
    not in K_2. With target_dim 1, K_2 = span(e_2) and the failure is at
    the pivot row of its basis; with target_dim 2, f_2 is invertible and
    K_2 = 0."""
    M = Rep(A2, field, (1, 2), [Mat(field, 2, 1, [1, 0])])
    N = Rep(A2, field, (0, target_dim), [Mat.zeros(field, target_dim, 0)])
    f2 = Mat(field, target_dim, 2, [1, 0] if target_dim == 1 else [1, 0, 0, 1])
    return RepMap._make(M, N, (Mat.zeros(field, 0, 1), f2))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("target_dim", [1, 2], ids=["pivot-row", "zero-kernel"])
def test_kernel_invariance_check_can_fail(field, target_dim):
    """`_kernel` checks invariance only at the pivot rows of the target
    kernel's basis (all rows when that kernel is 0); both paths still see a
    block family that is not a morphism."""
    f = _noncommuting_map(field, target_dim)
    with pytest.raises(AssertionError, match="kernel is not an invariant subspace"):
        repcat._kernel(f)
    with pytest.raises(AssertionError, match="kernel is not an invariant subspace"):
        kernel_by_solving(f)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["QQ", "GF2", "GF5"])
def test_minpoly_matches_solving_oracle(field):
    """The minimal polynomial read off one incremental reduction over the
    powers equals the one found by a fresh solve per power, on identity,
    scalar, nilpotent, Hom-basis and random-combination endomorphisms."""
    rng = random.Random(37)
    seen = Counter()

    def scalar():
        return field.coerce(rng.randint(-3, 3))

    for _ in range(30):
        q = random_acyclic_quiver(rng, max_vertices=4)
        M = random_rep(rng, q, field)
        if M.total_dim == 0:
            continue
        ends = hom_space(M, M)
        endos = [identity_map(M), repcat._combo([identity_map(M)], [scalar()])] + ends[:3]
        endos += [repcat._combo(ends, [scalar() for _ in ends]) for _ in range(3)]
        # on a sum of simples every arrow is zero, so any strictly upper
        # triangular block family is a nilpotent endomorphism
        S = direct_sum([simple(q, field, v) for v in q.vertices() for _ in range(M.dim(v))])
        strict = [
            Mat(field, d, d, [scalar() if j > i else 0 for i in range(d) for j in range(d)])
            for d in S.dims
        ]
        endos.append(RepMap(S, S, strict))
        for e in endos:
            mp = repcat._minpoly_of_endo(e)
            assert mp == minpoly_by_solving(e)
            seen["zero vertex"] += 0 in e.source.dims
            seen["degree > 2"] += len(mp) > 3
            seen["nilpotent"] += len(mp) > 2 and all(x == 0 for x in mp[:-1])
            seen["fraction"] += any(getattr(x, "denominator", 1) != 1 for x in mp)
    assert seen["zero vertex"] and seen["degree > 2"] and seen["nilpotent"]
    assert bool(seen["fraction"]) == field.is_rational


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_minpoly_of_the_zero_module_is_one(field):
    """On the zero space the constant 1 already vanishes; the solving
    oracle, which starts from degree 1, returns t instead."""
    e = identity_map(zero_rep(A3, field))
    assert repcat._minpoly_of_endo(e) == [field.one]
    assert minpoly_by_solving(e) == [field.zero, field.one]


def test_minpoly_forms_no_power_past_the_minimal_degree(monkeypatch):
    """e = diag(1, 2, 3) on k^3 has minimal polynomial of degree 3 over Q;
    e^4 and later are never built."""
    q = Quiver(1, [])
    M = Rep(q, QQ, (3,), [])
    e = RepMap(M, M, [Mat(QQ, 3, 3, [1, 0, 0, 0, 2, 0, 0, 0, 3])])
    calls = []
    after = RepMap.after
    monkeypatch.setattr(RepMap, "after", lambda self, other: calls.append(1) or after(self, other))
    assert repcat._minpoly_of_endo(e) == [-6, 11, -6, 1]
    # e^2 and e^3
    assert len(calls) == 2


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["QQ", "GF2", "GF5"])
def test_combo_matches_scale_add_fold(field):
    rng = random.Random(19)
    checked = 0
    for _ in range(40):
        q = random_acyclic_quiver(rng, max_vertices=4)
        basis = hom_space(random_rep(rng, q, field), random_rep(rng, q, field))
        if not basis:
            continue
        coeffs = [field.coerce(rng.randint(-3, 3)) for _ in basis]
        assert repcat._combo(basis, coeffs) == combo_by_folding(basis, coeffs)
        checked += 1
    assert checked >= 10


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(5)]), st.integers(0, 2**32 - 1))
def test_unchecked_morphisms_pass_the_public_constructor(field, seed):
    """Every map the library builds without checks (Hom basis, composites,
    sums, multiples, combinations, identities, polynomials in an
    endomorphism) is rebuilt through the checked RepMap(...), which must
    accept it and give an equal, hash-equal map."""
    rng = random.Random(seed)
    q = random_acyclic_quiver(rng, max_vertices=4, max_extra_arrows=2)
    M = random_rep(rng, q, field, max_dim=2)
    N = random_rep(rng, q, field, max_dim=2)
    S = direct_sum([M, N])

    def scalar():
        return field.coerce(rng.randint(-3, 3))

    def few(maps):
        return rng.sample(maps, min(3, len(maps)))

    into, ends, out = hom_space(M, S), hom_space(S, S), hom_space(S, N)
    made = [*hom_space(M, N), *into, *ends, *out, identity_map(M), identity_map(S)]
    for g in few(ends):
        made += [g.after(f) for f in few(into)]
        made += [h.after(g) for h in few(out)]
    for maps in (into, ends, out):
        picked = few(maps)
        made += [repcat._combo([f, g], [field.one, field.one]) for f in picked for g in picked]
        made += [repcat._combo([f], [scalar()]) for f in picked]
        if maps:
            made.append(repcat._combo(maps, [scalar() for _ in maps]))
    if ends:  # End(S) = 0 only when S = 0
        e = repcat._combo(ends, [scalar() for _ in ends])
        made.append(repcat._eval_poly_on_endo(e, [scalar(), scalar(), field.one]))
    for m in made:
        rebuilt = RepMap(m.source, m.target, m.blocks)
        assert rebuilt == m and hash(rebuilt) == hash(m)


def test_coordinates_round_trip():
    p1 = projective(K2, QQ, 1)
    m = direct_sum([p1, p1])
    basis = hom_space(m, m)
    target = repcat._combo([basis[0], basis[-1]], [3, -2])
    coords = coordinates_in_hom_basis([target], basis)
    assert coords is not None and (coords.rows, coords.cols) == (len(basis), 1)
    assert coords.entry(0, 0) == 3 and coords.entry(len(basis) - 1, 0) == -2
    assert repcat._combo(basis, coords.col(0)) == target
    # several maps at once: column j holds the coordinates of maps[j]
    maps = [basis[1], target, repcat._combo(basis[:2], [1, 1])]
    coords = coordinates_in_hom_basis(maps, basis)
    assert (coords.rows, coords.cols) == (len(basis), 3)
    assert list(coords.col(0)) == [0, 1] + [0] * (len(basis) - 2)
    assert list(coords.col(1)) == [3] + [0] * (len(basis) - 2) + [-2]
    assert list(coords.col(2)) == [1, 1] + [0] * (len(basis) - 2)
    # one map outside the span makes the whole answer None
    assert coordinates_in_hom_basis([basis[0], basis[-1]], basis[:-1]) is None


def test_decompose_direct_sums():
    s1, p1 = simple(A2, QQ, 1), projective(A2, QQ, 1)
    parts = decompose(direct_sum([p1, s1]))
    assert [r.dims for r in parts] == [(1, 0), (1, 1)]
    parts = decompose(direct_sum([s1, s1]))
    assert [r.dims for r in parts] == [(1, 0), (1, 0)]
    parts = decompose(direct_sum([p1, p1, p1]))
    assert len(parts) == 3
    assert all(is_isomorphic(r, p1) for r in parts)


def _projective_simple_sums(count):
    """A seeded stream of base-changed sums of 2 or 3 pairwise
    non-isomorphic projectives and simples, alternating QQ and F_5."""
    rng = random.Random("decompose-digest")
    fields = (QQ, GF(5))
    out = []
    while len(out) < count:
        field = fields[len(out) % 2]
        q = random_acyclic_quiver(rng, 4, 2)
        candidates = {}
        for v in q.vertices():
            for make in (projective, simple):
                m = make(q, field, v)
                candidates.setdefault(m.dims, m)
        if len(candidates) < 2:
            continue
        k = min(len(candidates), rng.randint(2, 3))
        parts = rng.sample(sorted(candidates.values(), key=lambda m: m.dims), k)
        out.append(conjugate_rep(rng, direct_sum(parts)))
    return out


def test_decompose_representatives_digest():
    """decompose returns these exact summands, matrices and order included:
    the split search may do less work but must make the same decisions."""
    h = hashlib.sha256()
    for m in _projective_simple_sums(120):
        for p in decompose(m):
            h.update(repr((p.dims, [[str(x) for x in a.entries] for a in p.maps])).encode())
        h.update(b"|")
    assert h.hexdigest() == "11c44219410e5103daf2b1a0a4df10f92b42f935e14d4c6d7baacdbf1f340f2e"


def test_one_dimensional_parts_build_no_hom_system(monkeypatch):
    """End of a one-dimensional module is the field: a simple is a leaf
    outright, and S_1 + S_2 reduces the one Hom system of the whole."""
    real = repcat._hom_echelon
    seen = []

    def counting(M, N):
        seen.append(M.dims)
        return real(M, N)

    monkeypatch.setattr(repcat, "_hom_echelon", counting)
    for field in (QQ, GF(5)):
        s1, s2 = simple(A2, field, 1), simple(A2, field, 2)
        assert decompose(s2) == [s2]
        assert seen == []
        assert [p.dims for p in decompose(direct_sum([s1, s2]))] == [(0, 1), (1, 0)]
        assert seen == [(1, 1)]
        seen.clear()


def test_split_node_makes_only_the_basis_map_it_reads(monkeypatch):
    """P_1 + P_2 + S_2 of A_3 under a base change (the decompose golden of
    test_cli) splits at the first basis map of each node of the search, so
    each of its Hom systems makes one RepMap and no other basis map."""
    a1 = [Fraction(-3, 2), Fraction(3, 2), 6]
    a2 = [Fraction(14, 3), -12, 4, Fraction(-4, 3), 3, -1]
    m = Rep(A3, QQ, (1, 3, 2), {"a1": Mat(QQ, 3, 1, a1), "a2": Mat(QQ, 2, 3, a2)})
    assert len(hom_space(m, m)) == 5
    made = []
    in_basis = [False]
    real_make = RepMap._make.__func__
    real_basis = repcat._hom_basis

    def make(cls, *args):
        if in_basis[0]:
            made[-1] += 1
        return real_make(cls, *args)

    def step(f, *args):
        in_basis[0] = True
        try:
            return f(*args)
        finally:
            in_basis[0] = False

    def counting_basis(*args):
        made.append(0)
        maps = step(lambda: iter(real_basis(*args)))
        while (x := step(next, maps, None)) is not None:
            yield x

    monkeypatch.setattr(RepMap, "_make", classmethod(make))
    monkeypatch.setattr(repcat, "_hom_basis", counting_basis)
    assert [p.dims for p in decompose(m, seed=1)] == [(0, 1, 0), (0, 1, 1), (1, 1, 1)]
    assert made == [1, 1]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=["QQ", "GF2", "GF5"])
def test_hom_space_memo_hit_is_the_unmemoized_basis(field):
    """A second hom_space of a pair is a memo hit, a new list each time,
    equal map for map to the basis read off a fresh Hom echelon; emptying
    or extending one list leaves the next call intact."""
    rng = random.Random(23)
    for _ in range(20):
        q = random_acyclic_quiver(rng, max_vertices=4)
        M, N = random_rep(rng, q, field), random_rep(rng, q, field)
        want = list(repcat._hom_basis(M, N, *repcat._hom_echelon(M, N)))
        first = hom_space(M, N)
        hits = repcat._hom_space_memo.cache_info().hits
        second = hom_space(M, N)
        assert repcat._hom_space_memo.cache_info().hits == hits + 1
        assert second is not first
        assert first == want and second == want
        first.clear()
        second.append(identity_map(M))
        third = hom_space(M, N)
        assert third is not second and third == want


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
def test_projectives_memo_is_every_projective(field):
    """_projectives(q, f) is (P_1, ..., P_n), the same tuple on a second
    call, and equal quivers built apart share it."""
    rng = random.Random(29)
    quivers = [A3, K2, Quiver(4, [Arrow("a", 1, 4), Arrow("b", 2, 4), Arrow("c", 3, 4)])]
    quivers += [random_acyclic_quiver(rng, max_vertices=5) for _ in range(5)]
    for q in quivers:
        got = repcat._projectives(q, field)
        assert got == tuple(projective(q, field, v) for v in q.vertices())
        assert repcat._projectives(Quiver(q.n, q.arrows, q.labels), field) is got
    assert repcat.free_module(A3, field) == direct_sum(
        [projective(A3, field, v) for v in A3.vertices()]
    )


def _random_draw_inputs():
    """Base-changed X^m whose splits come from the seeded random
    combinations, not from a Hom-basis map: streams s = 632 (QQ, X of dims
    (1, 2), m = 2) and s = 47 (F_5, X of dims (2, 3), m = 3) of the
    repeated-summand sweep with random_acyclic_quiver(rng, 3, 2)."""
    out = []
    for s, field in ((632, QQ), (47, GF(5))):
        rng = random.Random(s)
        q = random_acyclic_quiver(rng, 3, 2)
        X = random_rep(rng, q, field)
        out.append(conjugate_rep(rng, direct_sum([X] * rng.randint(2, 3))))
    return out


class _CountingRandom(random.Random):
    made = []

    def __init__(self, *args):
        _CountingRandom.made.append(args)
        super().__init__(*args)


def test_decompose_random_draws_digest(monkeypatch):
    """Where the split search reaches its random combinations it makes one
    seeded random.Random for the whole search, and decompose returns these
    exact summands, matrices and order included, for seeds 0 and 1."""
    monkeypatch.setattr(random, "Random", _CountingRandom)
    h = hashlib.sha256()
    for m in _random_draw_inputs():
        for seed in (0, 1):
            _CountingRandom.made.clear()
            for p in decompose(m, seed):
                h.update(repr((p.dims, [[str(x) for x in a.entries] for a in p.maps])).encode())
            h.update(b"|")
            assert _CountingRandom.made == [(seed,)]
    assert h.hexdigest() == "1b27e151f7be41e79553691fa38311b05ea8af082262a6a5e93cad66ff27a989"


def test_decompose_that_never_draws_makes_no_random_generator(monkeypatch):
    """A search settled by Hom-basis maps, dim End = 1 and one-dimensional
    parts never draws, so it builds no random.Random."""
    sums = _projective_simple_sums(12)
    monkeypatch.setattr(random, "Random", _CountingRandom)
    _CountingRandom.made.clear()
    for M in sums:
        assert len(decompose(M, seed=3)) >= 2
    assert decompose(simple(A3, QQ, 2)) == [simple(A3, QQ, 2)]
    assert _CountingRandom.made == []


def test_add_certificate_needs_rigidity_and_a_nonnegative_integer_combination():
    s1, s2, p1 = simple(A2, QQ, 1), simple(A2, QQ, 2), projective(A2, QQ, 1)
    assert repcat._in_add(direct_sum([p1, p1, s1]), [s1, p1]) == (1, 2)
    assert repcat._in_add(zero_rep(A2, QQ), [s1, p1]) == (0, 0)
    assert repcat._in_add(zero_rep(A2, QQ), []) == ()
    # rigid, but (0, 1) = dim P_1 - dim S_1 and (2, 2) is no multiple of (1, 0)
    assert repcat._in_add(s2, [s1, p1]) is None
    assert repcat._in_add(direct_sum([p1, p1]), [s1]) is None
    # dim (1, 1) = dim P_1, but Ext^1(S_1, S_2) != 0
    assert repcat._in_add(direct_sum([s1, s2]), [p1]) is None


def test_isotypic_certificate_accepts_powers_under_a_hostile_base_change():
    from strata.exceptional import enumerate_exceptional

    rng = random.Random(26)
    p1 = projective(K2, QQ, 1)
    x = next(r for r in enumerate_exceptional(K2, QQ, 7).reps if r.dims == (4, 3))
    for base in (p1, x):
        cube = conjugate_rep(rng, direct_sum([base] * 3), span=40)
        assert cube.maps != direct_sum([base] * 3).maps
        assert repcat._isotypic(base, cube)
        assert repcat._isotypic(conjugate_rep(rng, base, span=40), cube)
    assert repcat._isotypic(p1, p1)


def test_isotypic_certificate_rejects_a_non_rigid_module_of_the_right_dims():
    """R_0 (+) P_1 (+) S_2 has dims (2, 4) = 2 dim P_1 and two maps from P_1,
    but at vertex 2 they miss S_2: the assembly is not bijective there."""
    p1 = projective(K2, QQ, 1)
    r0 = Rep(K2, QQ, (1, 1), {"a": Mat(QQ, 1, 1, [1]), "b": Mat(QQ, 1, 1, [0])})
    non_rigid = direct_sum([r0, p1, simple(K2, QQ, 2)])
    assert non_rigid.dims == (2, 4) and ext1_dim(non_rigid, non_rigid)
    assert len(hom_space(p1, non_rigid)) == 2
    assert not repcat._isotypic(p1, non_rigid)


def test_isotypic_certificate_rejects_other_dims():
    p1, s2 = projective(K2, QQ, 1), simple(K2, QQ, 2)
    assert not repcat._isotypic(p1, direct_sum([p1, s2]))
    assert not repcat._isotypic(p1, s2)
    assert not repcat._isotypic(zero_rep(K2, QQ), zero_rep(K2, QQ))


def test_isotypic_certificate_needs_exactly_m_hom_basis_maps(monkeypatch):
    p1 = projective(K2, QQ, 1)
    square = direct_sum([p1, p1])
    assert repcat._isotypic(p1, square)
    full = repcat.hom_space
    monkeypatch.setattr(repcat, "hom_space", lambda X, E: full(X, E)[:-1])
    assert not repcat._isotypic(p1, square)
    monkeypatch.setattr(repcat, "hom_space", lambda X, E: full(X, E) + full(X, E)[:1])
    assert not repcat._isotypic(p1, square)


def test_isotypic_certificate_needs_a_bijective_assembly(monkeypatch):
    """m maps that span less than Hom(X, E): the first basis map twice."""
    p1 = projective(K2, QQ, 1)
    square = direct_sum([p1, p1])
    full = repcat.hom_space
    monkeypatch.setattr(repcat, "hom_space", lambda X, E: full(X, E)[:1] * 2)
    assert not repcat._isotypic(p1, square)


def test_decompose_indecomposable_with_nilpotent_end():
    jordan = Rep(
        K2,
        QQ,
        (2, 2),
        {"a": Mat.identity(QQ, 2), "b": Mat(QQ, 2, 2, [0, 1, 0, 0])},
    )
    assert end_dim(jordan) == 2
    parts = decompose(jordan)
    assert len(parts) == 1
    assert parts[0].dims == (2, 2)


_T = sympy.Symbol("t")


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
@pytest.mark.parametrize(
    "poly",
    [
        _T**2 + 1,
        _T**2 + 2,
        _T**2 + _T + 1,
        _T**3 - 2,
        (_T**2 + 1) ** 2,
        (_T**2 + 1) * (_T - 1),
    ],
    ids=str,
)
def test_decompose_field_endomorphism_ring(field, poly):
    # the Kronecker module (I, C_f), C_f the companion matrix of f, has
    # End = k[t]/(f): one summand of dims (deg g^e, deg g^e) per distinct
    # irreducible power g^e exactly dividing f
    p = field.characteristic
    coeffs = [field.coerce(int(c)) for c in sympy.Poly(poly, _T).all_coeffs()[::-1]]
    n = len(coeffs) - 1
    comp = Mat(
        field,
        n,
        n,
        [
            field.neg(coeffs[i]) if j == n - 1 else field.one if i == j + 1 else field.zero
            for i in range(n)
            for j in range(n)
        ],
    )
    m = Rep(K2, field, (n, n), {"a": Mat.identity(field, n), "b": comp})
    assert end_dim(m) == n
    ref = sympy.Poly(poly, _T, modulus=p) if p else sympy.Poly(poly, _T, domain="QQ")
    degrees = sorted(g.degree() * e for g, e in ref.factor_list()[1])
    assert [r.dims for r in decompose(m)] == [(d, d) for d in degrees]


FACTOR_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7), GF(2**31 - 1)]


@st.composite
def monic_polys(draw):
    """(field, coeffs low first): split, square or random, degree 1 to 4."""
    field = draw(st.sampled_from(FACTOR_FIELDS))
    if field.is_rational:
        scalars = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    else:
        scalars = st.builds(field.coerce, st.integers(0, field.characteristic - 1))
    shape = draw(st.sampled_from(["split", "square", "random"]))
    if shape == "random":
        coeffs = draw(st.lists(scalars, min_size=1, max_size=4))
        return field, coeffs + [field.one]
    a = draw(scalars)
    b = a if shape == "square" else draw(scalars)
    return field, [field.mul(a, b), field.neg(field.add(a, b)), field.one]


def _factor_list_reference(field, coeffs):
    """sympy's Poly.factor_list, each factor made monic, low degree first."""
    p = field.characteristic
    if p:
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], _T, modulus=p)
    else:
        cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
        poly = sympy.Poly(cs, _T, domain="QQ")
    out = []
    for fac, exp in poly.factor_list()[1]:
        cs = [
            field.coerce(Fraction(int(c.p), int(c.q)) if not p else int(c))
            for c in reversed(fac.all_coeffs())
        ]
        lead = field.inv(cs[-1])
        out.append(([field.mul(c, lead) for c in cs], exp))
    return out


@settings(max_examples=600, deadline=None)
@given(monic_polys())
def test_factor_poly_matches_sympy_factor_list(drawn):
    # factors, exponents and order: the order decides which part
    # decompose splits off first
    field, coeffs = drawn
    assert repcat._factor_poly(field, coeffs) == _factor_list_reference(field, coeffs)


@pytest.mark.parametrize(
    "field,coeffs,in_house",
    [
        (QQ, [Fraction(3), Fraction(1)], True),
        (QQ, [Fraction(-1, 4), Fraction(0), Fraction(1)], True),  # split
        (QQ, [Fraction(1), Fraction(2), Fraction(1)], True),  # square
        (QQ, [Fraction(2), Fraction(0), Fraction(1)], True),  # irreducible
        (GF(2), [1, 1, 1], True),
        (GF(5), [4, 0, 1], True),
        (GF(7), [1, 5, 1], True),
        (QQ, [Fraction(-2), Fraction(0), Fraction(0), Fraction(1)], False),
        (GF(3), [1, 0, 0, 0, 1], False),
        (GF(2**31 - 1), [2**31 - 2, 0, 1], False),
    ],
)
def test_factor_poly_falls_back_to_sympy_only_past_small_quadratics(
    monkeypatch, field, coeffs, in_house
):
    calls = []
    fallback = repcat._sympy_factor
    monkeypatch.setattr(
        repcat, "_sympy_factor", lambda f, c: calls.append(c) or fallback(f, c)
    )
    assert repcat._factor_poly(field, coeffs) == _factor_list_reference(field, coeffs)
    assert calls == ([] if in_house else [coeffs])


def test_import_and_low_degree_decompose_leave_sympy_unloaded(tmp_path):
    """Base-changed sums of two and three distinct projectives and simples,
    and the A_3 tilting module (1,1,1) + (1,1,0) + (1,0,0), split along
    minimal polynomials of degree at most 2, which are factored in house:
    the import of sympy (about half a second) never lands in such a call."""
    path = tmp_path / "a3.quiver"
    path.write_text("field Q\nvertices 3\narrow a1 1 2\narrow a2 2 3\n")
    script = f"""
import contextlib, io, itertools, random, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
import strata.cli
from strata import GF, QQ, Mat, Rep, decompose, direct_sum, linear_quiver, projective, simple
from helpers import arrow_map, conjugate_rep, interval_rep
assert "sympy" not in sys.modules, "import"
q = linear_quiver(2)
for f in (QQ, GF(5)):
    m = direct_sum([projective(q, f, 1), simple(q, f, 2)])
    g = Mat(f, 2, 2, [2, 1, 1, 1])
    m = Rep(q, f, m.dims, [g.mul(arrow_map(m, "a1"))])
    assert [p.dims for p in decompose(m)] == [(0, 1), (1, 1)]
q = linear_quiver(3)
for f in (QQ, GF(5)):
    mods = sorted({{m.dims: m for v in q.vertices()
                   for m in (simple(q, f, v), projective(q, f, v))}}.items())
    for k in (2, 3):
        for s, parts in enumerate(itertools.combinations([m for _, m in mods], k)):
            m = conjugate_rep(random.Random(s), direct_sum(parts))
            assert sorted(p.dims for p in decompose(m)) == sorted(p.dims for p in parts)
    t = direct_sum([interval_rep(f, 3, 1, hi) for hi in (3, 2, 1)])
    for m in (t, conjugate_rep(random.Random(0), t)):
        assert [p.dims for p in decompose(m)] == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
assert "sympy" not in sys.modules, "decompose"
with contextlib.redirect_stdout(io.StringIO()):
    assert strata.cli.main(["jh-verify", {str(path)!r}, "--json"]) == 0
assert "sympy" not in sys.modules, "jh-verify"
"""
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_decompose_repeated_summand_over_rationals():
    # a base change of P1 + P1 + P1 whose random endomorphisms have
    # irreducible minimal polynomials; the left-ideal idempotent splits it
    p1 = projective(K2, QQ, 1)
    m = conjugate_rep(random.Random(6), direct_sum([p1, p1, p1]), span=3)
    assert [r.dims for r in decompose(m)] == [(1, 2)] * 3


def test_decompose_repeated_summand_wide_at_every_vertex():
    # End(X) = k and X is 2-dimensional at every vertex, so no unit vector
    # lies in one copy of X; once one copy splits off, maps from it give
    # the left ideal that splits the remaining X + X
    q = Quiver(3, [Arrow("a0", 1, 2), Arrow("a1", 1, 3), Arrow("a2", 2, 3), Arrow("a3", 1, 2)])
    maps = {"a0": [0, 2, 2, -1], "a1": [1, -2, 0, -1], "a2": [1, 2, -2, 0], "a3": [1, 0, -1, 1]}
    x = Rep(q, QQ, (2, 2, 2), {a: Mat(QQ, 2, 2, e) for a, e in maps.items()})
    assert end_dim(x) == 1
    m = conjugate_rep(random.Random(1), direct_sum([x, x, x]), span=3)
    parts = decompose(m)
    assert [p.dims for p in parts] == [(2, 2, 2)] * 3
    assert all(is_isomorphic(p, x) for p in parts)


def test_decompose_sum_is_isomorphic_to_original():
    rng = random.Random(11)
    for field in (QQ, GF(5)):
        for _ in range(6):
            q = random_acyclic_quiver(rng, max_vertices=3, max_extra_arrows=1)
            m = random_rep(rng, q, field, max_dim=2)
            parts = decompose(m)
            assert sum(p.total_dim for p in parts) == m.total_dim
            if parts:
                assert is_isomorphic(direct_sum(parts), m)


def test_is_isomorphic_conjugates():
    rng = random.Random(3)
    for field in (QQ, GF(5)):
        for _ in range(6):
            q = random_acyclic_quiver(rng, max_vertices=3, max_extra_arrows=1)
            m = random_rep(rng, q, field, max_dim=2)
            assert is_isomorphic(m, conjugate_rep(rng, m))


def test_is_isomorphic_negatives():
    s1, s2 = simple(A2, QQ, 1), simple(A2, QQ, 2)
    assert not is_isomorphic(s1, s2)
    r0 = Rep(K2, QQ, (1, 1), {"a": Mat(QQ, 1, 1, [1]), "b": Mat(QQ, 1, 1, [0])})
    r1 = Rep(K2, QQ, (1, 1), {"a": Mat(QQ, 1, 1, [1]), "b": Mat(QQ, 1, 1, [1])})
    assert not is_isomorphic(r0, r1)
    # same dimension vector, different summands
    p1, s2q = projective(A2, QQ, 1), simple(A2, QQ, 2)
    lhs = direct_sum([p1, s2q])
    rhs = direct_sum([simple(A2, QQ, 1), s2q, s2q])
    assert lhs.dims == rhs.dims
    assert not is_isomorphic(lhs, rhs)


def test_is_isomorphic_exhaustive_small_prime():
    f2 = GF(2)
    lhs = direct_sum([projective(A2, f2, 1), simple(A2, f2, 2)])
    rhs = direct_sum([simple(A2, f2, 1), simple(A2, f2, 2), simple(A2, f2, 2)])
    assert not is_isomorphic(lhs, rhs)
    assert is_isomorphic(lhs, direct_sum([simple(A2, f2, 2), projective(A2, f2, 1)]))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_is_isomorphic_matches_summands(field):
    # R_lam = (1, 1; a = 1, b = lam): R_0 + R_1 and R_0 + R_2 have the same
    # summand dimension vectors but are not isomorphic
    r = [
        Rep(K2, field, (1, 1), {"a": Mat(field, 1, 1, [1]), "b": Mat(field, 1, 1, [lam])})
        for lam in range(3)
    ]
    lhs = direct_sum([r[0], r[1]])
    rhs = direct_sum([r[0], r[2]])
    assert [p.dims for p in decompose(lhs)] == [p.dims for p in decompose(rhs)]
    assert not is_isomorphic(lhs, rhs)
    copy = conjugate_rep(random.Random(5), lhs)
    assert copy != lhs
    assert is_isomorphic(lhs, copy)


def test_interval_hom_rule():
    # Hom([a,b], [c,d]) over linear A_n is 1 exactly when c <= a <= d <= b
    for (a, b) in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
        for (c, d) in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
            got = hom_dim(interval_rep(QQ, 3, a, b), interval_rep(QQ, 3, c, d))
            want = 1 if (c <= a <= d <= b) else 0
            assert got == want, ((a, b), (c, d))


def test_parse_rep_blocks_golden():
    text = """
field Q
vertices 2
arrow a 1 2
arrow b 1 2
rep
dims 1 2
map a 1 0
map b 0 1
rep
dims 1 0
"""
    field, q, rest = parse_quiver_text(text)
    reps = parse_rep_blocks(field, q, rest)
    assert len(reps) == 2
    assert reps[0] == projective(K2, QQ, 1)
    assert reps[1] == simple(K2, QQ, 1)


def test_parse_rep_blocks_fractions_and_mod():
    text = "vertices 2\narrow a 1 2\nrep\ndims 1 1\nmap a 3/2\n"
    field, q, rest = parse_quiver_text(text)
    (rep,) = parse_rep_blocks(field, q, rest)
    assert arrow_map(rep, "a") == Mat(QQ, 1, 1, [field.parse("3/2")])
    text5 = "field Fp 5\nvertices 2\narrow a 1 2\nrep\ndims 1 1\nmap a 7\n"
    field5, q5, rest5 = parse_quiver_text(text5)
    (rep5,) = parse_rep_blocks(field5, q5, rest5)
    assert arrow_map(rep5, "a").entry(0, 0) == 2


def test_parse_rep_blocks_errors():
    base = "vertices 2\narrow a 1 2\n"

    def bad(tail):
        field, q, rest = parse_quiver_text(base + tail)
        with pytest.raises(ParseError) as err:
            parse_rep_blocks(field, q, rest)
        return err.value

    assert bad("rep\nmap a 1\n").line == 4  # map before dims
    assert bad("rep\ndims 1\n").line == 4  # wrong dims count
    assert bad("rep\ndims 1 1\nmap c 1\n").line == 5  # unknown arrow
    assert bad("rep\ndims 1 1\nmap a 1 2\n").line == 5  # entry count
    assert bad("rep\ndims 1 1\n").line == 3  # missing map line
    assert bad("rep\ndims 1 1\nmap a 1\nmap a 1\n").line == 6  # duplicate
    negative = bad("rep\ndims -1 2\n")
    assert negative.line == 4
    assert "dimensions must be non-negative" in str(negative)


def test_zero_rep_edge_cases():
    z = zero_rep(A3, QQ)
    assert z.total_dim == 0
    assert hom_dim(z, z) == 0
    assert ext1_dim(z, projective(A3, QQ, 1)) == 0
    assert decompose(z) == []
    assert is_isomorphic(z, zero_rep(A3, QQ))

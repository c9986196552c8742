import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from strata.exactlin import GF, QQ, Field, Mat, _cleared, _first_relation, _sparse_rows

from helpers import random_mat


F2 = GF(2)
F5 = GF(5)


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(2 ** 31 + 11)
    assert GF(2).characteristic == 2
    assert GF(2147483647).characteristic == 2147483647  # largest prime below 2^31
    assert QQ.is_rational


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_gf_rejects_non_primes(p):
    # characteristic 0 is QQ; GF(0) used to return it silently
    with pytest.raises(ValueError, match=f"characteristic {p} is not prime"):
        GF(p)
    assert Field(0) == QQ


def test_field_coercion():
    assert F5.coerce(-1) == 4
    assert F5.coerce(Fraction(3, 2)) == 4  # 3 * inv(2) = 3 * 3 = 9 = 4 mod 5
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.parse("-3/2") == Fraction(-3, 2)
    assert F5.parse("7") == 2
    with pytest.raises(ValueError):
        QQ.parse("x")


def test_prime_field_rejects_denominators_divisible_by_p():
    """A multiple of p is zero in F_p, so it has no inverse."""
    with pytest.raises(ZeroDivisionError):
        F5.inv(5)
    with pytest.raises(ZeroDivisionError):
        F5.coerce(Fraction(1, 5))
    for token in ("1/5", "2/10"):
        with pytest.raises(ValueError, match="bad scalar"):
            F5.parse(token)


def test_rank_hand_reduced():
    # [[1,2],[2,4]]: second row is twice the first, rank 1
    m = Mat.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.rank() == 1
    # same matrix mod 2 collapses to [[1,0],[0,0]]
    m2 = Mat.from_rows(F2, [[1, 2], [2, 4]])
    assert m2.rank() == 1


def test_kernel_hand_values():
    m = Mat.from_rows(QQ, [[1, 2], [2, 4]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    k = basis[0]
    assert m.mul(k).is_zero()
    assert k.col(0) == (Fraction(-2), Fraction(1))
    # over F_2, kernel of [1 1] is spanned by (1, 1)
    b2 = Mat.from_rows(F2, [[1, 1]]).kernel_basis()
    assert len(b2) == 1
    assert b2[0].col(0) == (1, 1)


def test_kernel_f2_exhaustive_oracle():
    m = Mat.from_rows(F2, [[1, 1, 0], [0, 1, 1]])
    members = set()
    for x0 in (0, 1):
        for x1 in (0, 1):
            for x2 in (0, 1):
                v = Mat.column(F2, [x0, x1, x2])
                if m.mul(v).is_zero():
                    members.add(v.col(0))
    basis = m.kernel_basis()
    assert len(basis) == 1
    assert {b.col(0) for b in basis} <= members
    assert len(members) == 2  # zero vector plus the basis vector


def test_solve_exact():
    m = Mat.from_rows(QQ, [[2]])
    x = m.solve(Mat.column(QQ, [3]))
    assert x.col(0) == (Fraction(3, 2),)
    assert m.mul(x) == Mat.column(QQ, [3])


def test_solve_inconsistent():
    m = Mat.from_rows(QQ, [[1], [1]])
    assert m.solve(Mat.column(QQ, [1, 2])) is None


def test_solve_shape_errors():
    m = Mat.from_rows(QQ, [[1, 0]])
    with pytest.raises(ValueError):
        m.solve(Mat.column(QQ, [1, 2]))
    with pytest.raises(ValueError):
        m.mul(Mat.from_rows(QQ, [[1, 2]]))
    with pytest.raises(ValueError):
        m.add(Mat.from_rows(QQ, [[1], [2]]))


def test_rank_nullity_random():
    rng = random.Random(7)
    for field in (QQ, F5, F2):
        for _ in range(40):
            rows = rng.randint(0, 6)
            cols = rng.randint(0, 6)
            m = random_mat(rng, field, rows, cols)
            basis = m.kernel_basis()
            assert m.rank() + len(basis) == cols
            for k in basis:
                assert m.mul(k).is_zero()


def test_solve_random_consistent():
    rng = random.Random(11)
    for field in (QQ, F5):
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_mat(rng, field, rows, cols)
            x0 = random_mat(rng, field, cols, 1)
            b = m.mul(x0)
            x = m.solve(b)
            assert x is not None
            assert m.mul(x) == b


def test_deterministic_results():
    rng1, rng2 = random.Random(3), random.Random(3)
    m1 = random_mat(rng1, QQ, 5, 7)
    m2 = random_mat(rng2, QQ, 5, 7)
    assert m1 == m2
    assert [b.entries for b in m1.kernel_basis()] == [b.entries for b in m2.kernel_basis()]


class _ZeroWithoutDenominator(Fraction):
    """A zero whose denominator must not be read."""

    @property
    def denominator(self):
        raise AssertionError("the denominator of a zero entry was read")


class _OpaqueZero(_ZeroWithoutDenominator):
    """A zero whose numerator must not be read either."""

    @property
    def numerator(self):
        raise AssertionError("the numerator of a zero entry was read")


def test_zero_entries_are_dropped_before_clearing():
    z, o = _ZeroWithoutDenominator(0), _OpaqueZero(0)
    half, two_thirds = Fraction(1, 2), Fraction(-2, 3)
    assert _cleared([z, half, z, two_thirds, z]) == ([0, 3, 0, -4, 0], 6)
    assert _sparse_rows(QQ, [[o, half, o, two_thirds, o], [o, o]]) == [{1: 3, 3: -4}, {}]
    assert Mat(QQ, 2, 3, [o, half, o, two_thirds, o, 1]).rank() == 2
    row = Mat(QQ, 1, 5, [z, half, z, two_thirds, z])
    assert row.mul(Mat.column(QQ, [1] * 5)) == Mat(QQ, 1, 1, [Fraction(-1, 6)])


def test_sparse_rows_are_coprime_positive_multiples():
    rng = random.Random(5)
    pool = (0, 0, 0, 1, -1, 4, Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3), Fraction(6, 5))
    rows = [[Fraction(rng.choice(pool)) for _ in range(6)] for _ in range(300)]
    for r, got in zip(rows, _sparse_rows(QQ, rows)):
        assert sorted(got) == [j for j, x in enumerate(r) if x]
        if got:
            assert gcd(*got.values()) == 1
            ratios = {Fraction(got[j]) / r[j] for j in got}
            assert len(ratios) == 1 and ratios.pop() > 0


def test_column_space_pivot_rows():
    # columns span {(1,0,1)}: pivot row 0, complement rows {1, 2}
    m = Mat.from_rows(QQ, [[1, 2], [0, 0], [1, 2]])
    assert m.column_space_pivot_rows() == (0,)


def test_inverse():
    m = Mat.from_rows(QQ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert m.mul(inv) == Mat.identity(QQ, 2)
    with pytest.raises(ValueError):
        Mat.from_rows(QQ, [[1, 2], [2, 4]]).inverse()
    mi = Mat.from_rows(F5, [[2, 1], [1, 1]])
    assert mi.mul(mi.inverse()) == Mat.identity(F5, 2)


def test_mat_rejects_non_integer_shapes():
    for rows, cols in ((2.0, 1), (1, 1.5), (Fraction(2), 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            Mat(QQ, rows, cols, [1, 2])


def test_zero_dimensional_edge_cases():
    z = Mat.zeros(QQ, 0, 3)
    assert z.rank() == 0
    assert len(z.kernel_basis()) == 3
    t = Mat.zeros(QQ, 3, 0)
    assert t.rank() == 0
    assert t.kernel_basis() == []
    assert Mat.zeros(QQ, 0, 0).rank() == 0


def test_stack_and_transpose():
    a = Mat.from_rows(QQ, [[1, 2]])
    b = Mat.from_rows(QQ, [[3, 4]])
    assert a.vstack(b) == Mat.from_rows(QQ, [[1, 2], [3, 4]])
    assert a.hstack(b) == Mat.from_rows(QQ, [[1, 2, 3, 4]])
    assert a.transpose() == Mat.from_rows(QQ, [[1], [2]])


def test_bareiss_avoids_fraction_blowup():
    # a 12x12 integer matrix keeps integer arithmetic through elimination
    rng = random.Random(5)
    m = random_mat(rng, QQ, 12, 12, span=9)
    r = m.rank()
    assert 0 <= r <= 12
    kb = m.kernel_basis()
    assert r + len(kb) == 12


# --- property tests against sympy and a naive dense reference ---

FIELDS = (QQ, GF(2), GF(3), GF(5))


@st.composite
def _block(draw, field, rows, cols):
    """rows * cols field elements drawn from fractions a/d, |a| <= 4, d <= 3."""
    p = field.characteristic
    dens = [d for d in (1, 2, 3) if p == 0 or d % p]
    entries = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(dens))
    ent = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
    if draw(st.booleans()):  # sparse: keep about a quarter of the entries
        keep = draw(st.lists(st.integers(0, 3), min_size=rows * cols, max_size=rows * cols))
        ent = [x if k == 0 else 0 for x, k in zip(ent, keep)]
    return [field.coerce(x) for x in ent]


@st.composite
def matrices(draw):
    """(field, rows, cols, entries) up to 8x8: dense, sparse, or a product of
    two sparse factors through at most 4 dimensions (low rank)."""
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    if draw(st.booleans()):
        k = draw(st.integers(0, 4))
        a, b = draw(_block(field, rows, k)), draw(_block(field, k, cols))
        return field, rows, cols, _naive_mul(field, a, b, rows, k, cols)
    return field, rows, cols, draw(_block(field, rows, cols))


def _naive_mul(field, a, b, rows, inner, cols):
    p = field.characteristic
    out = [sum((Fraction(a[i * inner + t]) * b[t * cols + j] for t in range(inner)), Fraction(0))
           for i in range(rows) for j in range(cols)]
    return [int(x) % p for x in out] if p else out


def _naive_rank(field, rows):
    """Dense row reduction on Fractions, or on ints mod p."""
    p = field.characteristic
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        piv = rows[rank]
        inv = pow(piv[c], p - 2, p) if p else 1 / piv[c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(rows[i], piv)]
        rank += 1
    return rank


def _sympy_reduced(field, rows, cols, ent):
    """(rank, pivot columns, reduced-echelon kernel basis) computed by sympy."""
    if field.is_rational:
        m = sympy.Matrix(rows, cols, ent)
        kernel = [tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in m.nullspace()]
        return m.rank(), tuple(m.rref()[1]), kernel
    p = field.characteristic
    gf = sympy.GF(p)
    dm = DomainMatrix(
        [[gf(x) for x in ent[i * cols:(i + 1) * cols]] for i in range(rows)], (rows, cols), gf
    )
    reduced, pivots = dm.rref()
    red = reduced.to_Matrix()
    kernel = []
    for fc in (j for j in range(cols) if j not in pivots):
        x = [0] * cols
        x[fc] = 1
        for r, c in enumerate(pivots):
            x[c] = int(-red[r, fc]) % p
        kernel.append(tuple(x))
    return len(pivots), tuple(pivots), kernel


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_and_kernel_match_sympy(drawn):
    field, rows, cols, ent = drawn
    m = Mat(field, rows, cols, ent)
    rank, pivots, kernel = _sympy_reduced(field, rows, cols, ent)
    assert m.rank() == rank
    basis = m.kernel_basis()
    assert [b.col(0) for b in basis] == kernel
    free = [j for j in range(cols) if j not in pivots]
    for fc, b in zip(free, basis):
        assert [b.entry(j, 0) for j in free] == [field.one if j == fc else field.zero for j in free]


@settings(max_examples=150, deadline=None)
@given(matrices(), st.integers(0, 3), st.booleans(), st.data())
def test_solve_matrix_matches_sympy(drawn, k, consistent, data):
    field, rows, cols, ent = drawn
    if consistent:
        rhs = _naive_mul(field, ent, data.draw(_block(field, cols, k)), rows, cols, k)
    else:
        rhs = data.draw(_block(field, rows, k))
    x = Mat(field, rows, cols, ent).solve_matrix(Mat(field, rows, k, rhs))
    rank, pivots, _ = _sympy_reduced(field, rows, cols, ent)
    aug = [y for i in range(rows) for y in ent[i * cols:(i + 1) * cols] + rhs[i * k:(i + 1) * k]]
    solvable = _sympy_reduced(field, rows, cols + k, aug)[0] == rank
    assert (x is not None) == solvable
    if x is None:
        return
    assert (x.rows, x.cols) == (cols, k)
    assert _naive_mul(field, ent, x.entries, rows, cols, k) == rhs
    free = [j for j in range(cols) if j not in pivots]
    assert all(x.entry(j, c) == 0 for j in free for c in range(k))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_column_space_pivot_rows_match_naive(drawn):
    field, rows, cols, ent = drawn
    row_lists = [ent[i * cols:(i + 1) * cols] for i in range(rows)]
    want = tuple(i for i in range(rows)
                 if _naive_rank(field, row_lists[:i + 1]) > _naive_rank(field, row_lists[:i]))
    assert Mat(field, rows, cols, ent).column_space_pivot_rows() == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
def test_mul_matches_naive(field, rows, inner, cols, data):
    a = data.draw(_block(field, rows, inner))
    b = data.draw(_block(field, inner, cols))
    got = Mat(field, rows, inner, a).mul(Mat(field, inner, cols, b))
    assert list(got.entries) == _naive_mul(field, a, b, rows, inner, cols)


def test_first_relation_reads_the_relation_and_stops_there():
    """v2 = 2 v0 - v1/3 gives -2 v0 + v1/3 + v2 = 0 over Q; the vector after
    it is never requested, and independent vectors give None."""
    v0, v1 = [Fraction(1), Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(3), Fraction(1)]
    v2 = [2 * a - b / 3 for a, b in zip(v0, v1)]

    def stream(*vectors):
        yield from vectors
        raise AssertionError("asked past the first relation")

    assert _first_relation(QQ, stream(v0, v1, v2)) == [-2, Fraction(1, 3), 1]
    assert _first_relation(QQ, iter([v0, v1])) is None
    # over F_5 the last coefficient is scaled to 1: 4 w0 + 2 w1 + 2 w2 = 0
    w0, w1 = [1, 0, 2], [0, 1, 1]
    w2 = [(3 * a + 4 * b) % 5 for a, b in zip(w0, w1)]
    assert _first_relation(F5, stream(w0, w1, w2)) == [2, 1, 1]
    # a zero vector is a relation on its own, an empty one too
    assert _first_relation(F5, stream([0, 0])) == [1]
    assert _first_relation(QQ, stream([])) == [1]

import random

import pytest
import sympy

from strata.exactlin import GF, QQ, Mat
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
    cokernel_rep,
    coordinates_in_hom_basis,
    decompose,
    direct_sum,
    end_dim,
    ext1_dim,
    ext1_space,
    extension_from_cocycle,
    hom_dim,
    hom_space,
    is_isomorphic,
    kernel_rep,
    orthogonal,
    parse_rep_blocks,
    projective,
    simple,
    zero_rep,
)

from helpers import conjugate_rep, interval_rep, random_acyclic_quiver, random_rep

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


def test_simple_and_projective_shapes():
    s1 = simple(A2, QQ, 1)
    assert s1.dims == (1, 0)
    p1 = projective(A2, QQ, 1)
    assert p1.dims == (1, 1)
    assert p1.arrow_map("a1") == Mat(QQ, 1, 1, [1])
    # at a sink the projective is the simple
    assert projective(A2, QQ, 2) == simple(A2, QQ, 2)
    assert projective(A3, QQ, 1).dims == (1, 1, 1)
    pk = projective(K2, QQ, 1)
    assert pk.dims == (1, 2)
    assert pk.arrow_map("a") == Mat(QQ, 2, 1, [1, 0])
    assert pk.arrow_map("b") == Mat(QQ, 2, 1, [0, 1])


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


def test_ext_space_matches_dim_and_realizes():
    s1, s2 = simple(A2, QQ, 1), simple(A2, QQ, 2)
    cocycles = ext1_space(s1, s2)
    assert len(cocycles) == ext1_dim(s1, s2) == 1
    ses = extension_from_cocycle(s1, s2, cocycles[0])
    assert ses.verify()
    assert ses.middle.dims == (1, 1)
    assert is_isomorphic(ses.middle, projective(A2, QQ, 1))


def test_ext_space_kronecker_middles():
    k1, k2 = simple(K2, QQ, 1), simple(K2, QQ, 2)
    cocycles = ext1_space(k1, k2)
    assert len(cocycles) == 2
    middles = []
    for z in cocycles:
        ses = extension_from_cocycle(k1, k2, z)
        assert ses.verify()
        middles.append((ses.middle.arrow_map("a"), ses.middle.arrow_map("b")))
    assert (Mat(QQ, 1, 1, [1]), Mat(QQ, 1, 1, [0])) in middles
    assert (Mat(QQ, 1, 1, [0]), Mat(QQ, 1, 1, [1])) in middles


def test_zero_cocycle_gives_split_extension():
    s1, s2 = simple(K2, QQ, 1), simple(K2, QQ, 2)
    z = {a.name: Mat.zeros(QQ, s2.dim(a.target), s1.dim(a.source)) for a in K2.arrows}
    ses = extension_from_cocycle(s1, s2, z)
    assert ses.verify()
    assert is_isomorphic(ses.middle, direct_sum([s1, s2]))


def test_kernel_and_cokernel():
    p1, s1, s2 = projective(A2, QQ, 1), simple(A2, QQ, 1), simple(A2, QQ, 2)
    quot = RepMap(p1, s1, [Mat(QQ, 1, 1, [1]), Mat.zeros(QQ, 0, 1)])
    k, inc = kernel_rep(quot)
    assert k.dims == (0, 1)
    assert inc.source == k and inc.target == p1
    c, proj = cokernel_rep(inc)
    assert c.dims == (1, 0)
    assert proj.block(1).rank() == 1
    # cokernel of the quotient map is zero
    cz, _ = cokernel_rep(quot)
    assert cz.total_dim == 0
    assert is_isomorphic(k, s2)


def test_coordinates_round_trip():
    p1 = projective(K2, QQ, 1)
    m = direct_sum([p1, p1])
    basis = hom_space(m, m)
    target = basis[0].scale(3).add(basis[-1].scale(-2))
    coords = coordinates_in_hom_basis(target, basis)
    assert coords is not None
    assert coords[0] == 3 and coords[-1] == -2
    rebuilt = basis[0].scale(coords[0])
    for b, c in zip(basis[1:], coords[1:]):
        rebuilt = rebuilt.add(b.scale(c))
    assert rebuilt == target


def test_decompose_direct_sums():
    s1, p1 = simple(A2, QQ, 1), projective(A2, QQ, 1)
    parts = decompose(direct_sum([p1, s1]))
    assert [r.dims for r in parts] == [(1, 0), (1, 1)]
    parts = decompose(direct_sum([s1, s1]))
    assert [r.dims for r in parts] == [(1, 0), (1, 0)]
    parts = decompose(direct_sum([p1, p1, p1]))
    assert len(parts) == 3
    assert all(is_isomorphic(r, p1) for r in parts)


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
    assert rep.arrow_map("a") == Mat(QQ, 1, 1, [field.parse("3/2")])
    text5 = "field Fp 5\nvertices 2\narrow a 1 2\nrep\ndims 1 1\nmap a 7\n"
    field5, q5, rest5 = parse_quiver_text(text5)
    (rep5,) = parse_rep_blocks(field5, q5, rest5)
    assert rep5.arrow_map("a").entry(0, 0) == 2


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

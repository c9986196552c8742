"""Exceptional objects, sequences, tilting modules, and their enumeration."""

import itertools

import pytest

from strata.exactlin import GF, QQ, Mat
from strata.quiver import Arrow, Quiver, kronecker_quiver, linear_quiver
from strata.repcat import (
    Rep,
    direct_sum,
    ext1_dim,
    hom_dim,
    projective,
    simple,
)
from strata.exceptional import (
    EnumerationResult,
    ExcSequence,
    enumerate_complete_exceptional_sequences,
    enumerate_exceptional,
    is_exceptional,
    is_exceptional_sequence,
    is_tilting_module,
    left_mutation,
    order_into_exceptional_sequence,
    right_mutation,
    tilting_coresolution,
)

from helpers import interval_rep


A2 = linear_quiver(2)
A3 = linear_quiver(3)
KR = kronecker_quiver()


def quiver(n, *arrows):
    return Quiver(n, tuple(Arrow(f"a{i}", s, t) for i, (s, t) in enumerate(arrows)))


A4 = linear_quiver(4)
D4 = quiver(4, (1, 4), (2, 4), (3, 4))
D5 = quiver(5, (1, 2), (2, 3), (3, 4), (3, 5))
E6 = quiver(6, (1, 2), (2, 3), (3, 4), (4, 5), (3, 6))
KR3 = quiver(2, (1, 2), (1, 2), (1, 2))
AFFINE_A2 = quiver(3, (1, 2), (2, 3), (1, 3))
WILD = quiver(4, (1, 2), (2, 3), (3, 4), (1, 3), (1, 4))


def kronecker_regular(field, lam):
    return Rep(
        KR,
        field,
        (1, 1),
        {
            "a": Mat(field, 1, 1, (field.one,)),
            "b": Mat(field, 1, 1, (field.coerce(lam),)),
        },
    )


def test_simples_and_projectives_are_exceptional():
    for q in (A2, A3, KR):
        for v in q.vertices():
            assert is_exceptional(simple(q, QQ, v))
            assert is_exceptional(projective(q, QQ, v))


def test_kronecker_regular_is_not_exceptional():
    """R_lambda has a one-dimensional space of self-extensions."""
    r = kronecker_regular(QQ, 1)
    assert ext1_dim(r, r) == 1
    assert not is_exceptional(r)


def test_decomposable_is_not_exceptional():
    m = direct_sum([simple(A2, QQ, 1), simple(A2, QQ, 2)])
    assert not is_exceptional(m)


def test_sequence_verify_and_completeness():
    s1, s2 = simple(A2, QQ, 1), simple(A2, QQ, 2)
    good = ExcSequence((s1, s2))
    assert good.verify()
    assert good.is_complete()
    assert len(good) == 2 and good[0] is s1
    # reversed order fails: Ext^1(S_1, S_2) != 0 with S_1 later
    assert not ExcSequence((s2, s1)).verify()
    assert not ExcSequence(()).is_complete()
    assert is_exceptional_sequence([simple(A3, QQ, 3), projective(A3, QQ, 1)])


def test_order_into_sequence_a2_simples():
    got = order_into_exceptional_sequence([simple(A2, QQ, 1), simple(A2, QQ, 2)])
    assert tuple(x.dims for x in got) == ((1, 0), (0, 1))


def test_order_into_sequence_a2_projective_and_simple():
    got = order_into_exceptional_sequence([projective(A2, QQ, 1), simple(A2, QQ, 1)])
    assert tuple(x.dims for x in got) == ((1, 1), (1, 0))


def test_order_into_sequence_unorderable_pair():
    """Hom(P_1, S_1) and Ext^1(S_1, P_1) are both nonzero on the Kronecker quiver."""
    s1 = simple(KR, QQ, 1)
    p1 = projective(KR, QQ, 1)
    assert hom_dim(p1, s1) != 0
    assert ext1_dim(s1, p1) != 0
    assert order_into_exceptional_sequence([s1, p1]) is None


def test_order_into_sequence_rejects_non_exceptional():
    with pytest.raises(ValueError, match="not exceptional"):
        order_into_exceptional_sequence([kronecker_regular(QQ, 0)])


def test_enumerate_a2():
    res = enumerate_exceptional(A2, QQ, 2)
    assert [r.dims for r in res.reps] == [(0, 1), (1, 0), (1, 1)]
    assert len(res) == 3


def test_enumerate_a3_intervals():
    """The exceptionals of a linear A_3 are the six interval modules."""
    res = enumerate_exceptional(A3, QQ, 3)
    want = {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
        (1, 1, 1),
    }
    assert {r.dims for r in res.reps} == want


def test_enumerate_kronecker():
    res = enumerate_exceptional(KR, QQ, 3)
    assert {r.dims for r in res.reps} == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_enumerate_one_vertex():
    q = Quiver(1, ())
    res = enumerate_exceptional(q, QQ, 4)
    assert [r.dims for r in res.reps] == [(1,)]
    seqs = enumerate_complete_exceptional_sequences(q, QQ, 4)
    assert len(seqs) == 1 and seqs[0][0].dims == (1,)


def test_enumerate_over_small_prime_field():
    res = enumerate_exceptional(A2, GF(2), 2)
    assert [r.dims for r in res.reps] == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_is_deterministic():
    a = enumerate_exceptional(A3, QQ, 3)
    b = enumerate_exceptional(A3, QQ, 3)
    assert [r.dims for r in a.reps] == [r.dims for r in b.reps]
    assert all(x.maps == y.maps for x, y in zip(a.reps, b.reps))


def test_sequences_a2():
    seqs = enumerate_complete_exceptional_sequences(A2, QQ, 2)
    got = {tuple(x.dims for x in s) for s in seqs}
    assert got == {
        ((1, 0), (0, 1)),
        ((0, 1), (1, 1)),
        ((1, 1), (1, 0)),
    }


def test_sequences_kronecker():
    seqs = enumerate_complete_exceptional_sequences(KR, QQ, 3)
    got = {tuple(x.dims for x in s) for s in seqs}
    assert got == {
        ((1, 0), (0, 1)),
        ((0, 1), (1, 2)),
        ((2, 1), (1, 0)),
    }


def test_sequences_a3_against_permutation_oracle():
    """Count complete sequences by brute force over the interval modules."""
    intervals = [
        interval_rep(QQ, 3, lo, hi) for lo in (1, 2, 3) for hi in range(lo, 4)
    ]
    count = 0
    for trip in itertools.permutations(intervals, 3):
        ok = True
        for i in range(3):
            for j in range(i + 1, 3):
                if hom_dim(trip[j], trip[i]) or ext1_dim(trip[j], trip[i]):
                    ok = False
        if ok:
            count += 1
    assert count == 16
    seqs = enumerate_complete_exceptional_sequences(A3, QQ, 3)
    assert len(seqs) == 16
    for s in seqs:
        assert s.verify() and s.is_complete()


def test_a3_interval_ext_table():
    """Exactly five ordered interval pairs carry a nonzero extension group."""
    ivs = {(lo, hi): interval_rep(QQ, 3, lo, hi)
           for lo in (1, 2, 3) for hi in range(lo, 4)}
    nonzero = {
        (a, b)
        for a in ivs
        for b in ivs
        if a != b and ext1_dim(ivs[a], ivs[b]) != 0
    }
    assert nonzero == {
        ((1, 1), (2, 2)),
        ((1, 1), (2, 3)),
        ((2, 2), (3, 3)),
        ((1, 2), (3, 3)),
        ((1, 2), (2, 3)),
    }


def test_tilting_free_module():
    for q in (A2, A3, KR):
        a = direct_sum([projective(q, QQ, v) for v in q.vertices()])
        assert is_tilting_module(a)


def test_tilting_a2_examples():
    assert is_tilting_module(direct_sum([projective(A2, QQ, 1), simple(A2, QQ, 1)]))
    assert not is_tilting_module(direct_sum([simple(A2, QQ, 1), simple(A2, QQ, 2)]))


def test_tilting_needs_enough_summands():
    assert not is_tilting_module(projective(A2, QQ, 1))
    # three copies of one summand still make only one isomorphism class
    assert not is_tilting_module(direct_sum([projective(A3, QQ, 1)] * 3))


def test_a3_tilting_triples():
    """Of the 20 interval triples exactly the 5 containing [1,3] are tilting."""
    ivs = {(lo, hi): interval_rep(QQ, 3, lo, hi)
           for lo in (1, 2, 3) for hi in range(lo, 4)}
    tiltings = set()
    for trip in itertools.combinations(sorted(ivs), 3):
        if is_tilting_module(direct_sum([ivs[t] for t in trip])):
            tiltings.add(trip)
    assert tiltings == {
        ((1, 1), (1, 2), (1, 3)),
        ((1, 1), (1, 3), (3, 3)),
        ((1, 2), (1, 3), (2, 2)),
        ((1, 3), (2, 2), (2, 3)),
        ((1, 3), (2, 3), (3, 3)),
    }
    for trip in tiltings:
        ordered = order_into_exceptional_sequence([ivs[t] for t in trip])
        assert ordered is not None and ordered.is_complete()


def test_coresolution_of_a2_tilting():
    t = direct_sum([projective(A2, QQ, 1), simple(A2, QQ, 1)])
    ses = tilting_coresolution(t)
    assert ses.verify()
    assert ses.sub.dims == (1, 2)
    assert ses.middle.dims == (3, 2)
    assert ses.quotient.dims == (2, 0)


def test_coresolution_of_free_module():
    a = direct_sum([projective(A2, QQ, v) for v in A2.vertices()])
    ses = tilting_coresolution(a)
    assert ses.verify()
    assert ses.sub.dims == a.dims


def test_coresolution_rejects_non_tilting():
    with pytest.raises(ValueError, match="tilting"):
        tilting_coresolution(simple(A2, QQ, 1))


def test_enumeration_result_iterates():
    res = EnumerationResult((simple(A2, QQ, 1),))
    assert [r.dims for r in res] == [(1, 0)]


def vectors_up_to(n, bound):
    """Every d >= 0 of length n with sum(d) <= bound, the zero vector included."""
    if n == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in vectors_up_to(n - 1, bound - first):
            yield (first,) + rest


def tits_roots(q, bound):
    """Positive roots of a Dynkin quiver: d >= 0, d != 0, q(d) = <d, d> = 1."""
    return {d for d in vectors_up_to(q.n, bound) if any(d) and q.euler_form(d, d) == 1}


ORACLES = [
    ("A4", A4, QQ, 4, tits_roots(A4, 4)),
    ("D4-F3", D4, GF(3), 5, tits_roots(D4, 5)),
    ("D5-F3", D5, GF(3), 7, tits_roots(D5, 7)),
    ("E6", E6, QQ, 11, tits_roots(E6, 11)),
    # (n, n + 1) and (n + 1, n); a one-sided closure misses some of them
    ("Kronecker", KR, QQ, 9, {d for n in range(5) for d in ((n, n + 1), (n + 1, n))}),
    ("3-Kronecker", KR3, QQ, 9, {(0, 1), (1, 0), (1, 3), (3, 1)}),
    # (1, 2, 1) and (2, 1, 2) are real roots but not Schur roots
    ("affine-A2", AFFINE_A2, QQ, 5, {
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
        (1, 1, 2), (2, 1, 1), (1, 2, 2), (2, 2, 1),
    }),
    # no module on the real roots (1, 0, 2, 1), (1, 2, 1, 0), (2, 0, 1, 2),
    # (2, 1, 2, 0), (1, 1, 3, 1), (1, 2, 1, 2)
    ("wild", WILD, QQ, 6, {
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 1),
        (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0), (0, 1, 1, 1),
        (1, 1, 0, 1), (1, 0, 1, 2), (1, 1, 2, 0), (2, 0, 1, 1), (2, 1, 1, 0),
        (1, 0, 2, 2), (1, 2, 2, 0), (2, 0, 2, 1), (2, 2, 1, 0), (3, 1, 1, 1),
    }),
]


@pytest.mark.parametrize("name,q,field,bound,want", ORACLES,
                         ids=[o[0] for o in ORACLES])
def test_enumerate_matches_closed_form(name, q, field, bound, want):
    res = enumerate_exceptional(q, field, bound)
    assert [r.dims for r in res.reps] == sorted(want, key=lambda d: (sum(d), d))
    assert res.unresolved_roots == ()
    for r in res.reps:
        assert q.euler_form(r.dims, r.dims) == 1
        assert is_exceptional(r)


def test_tits_root_counts():
    assert [len(o[4]) for o in ORACLES[:4]] == [10, 12, 20, 36]


def braid_orbit(start, bound):
    """Dimension tuples of the sequences reached from start by the braid
    generators sigma_i^(+-1), keeping every member within the bound."""
    key = lambda seq: tuple(x.dims for x in seq)
    seen = {key(start)}
    frontier = [start]
    while frontier:
        reached = []
        for seq in frontier:
            for i in range(len(seq) - 1):
                E, F = seq[i], seq[i + 1]
                for pair in ((left_mutation(E, F), E), (F, right_mutation(E, F))):
                    if any(x.total_dim > bound for x in pair):
                        continue
                    nxt = seq[:i] + pair + seq[i + 2:]
                    if key(nxt) not in seen:
                        assert ExcSequence(nxt).verify()
                        seen.add(key(nxt))
                        reached.append(nxt)
        frontier = reached
    return seen


@pytest.mark.parametrize("q,field,bound,count", [
    (A3, QQ, 3, 16),
    (A4, QQ, 4, 125),
    (D4, GF(3), 5, 162),
    (KR, QQ, 5, 5),
], ids=["A3", "A4", "D4-F3", "Kronecker"])
def test_braid_orbit_matches_sequence_enumeration(q, field, bound, count):
    """The braid group acts transitively on complete exceptional sequences
    (Crawley-Boevey 1993), so the bounded orbit of the simples is the set
    the pair-table search lists."""
    simples = [simple(q, field, v) for v in q.vertices()]
    orbit = braid_orbit(order_into_exceptional_sequence(simples).reps, bound)
    listed = {tuple(x.dims for x in s)
              for s in enumerate_complete_exceptional_sequences(q, field, bound)}
    assert len(orbit) == count
    assert orbit == listed

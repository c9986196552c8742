"""Exceptional objects, sequences, tilting modules, and their enumeration."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from strata import exceptional, repcat
from strata.exactlin import GF, QQ, Mat
from strata.quiver import Arrow, Quiver, kronecker_quiver, linear_quiver
from strata.repcat import (
    Rep,
    decompose,
    direct_sum,
    distinct_summands,
    ext1_dim,
    hom_dim,
    projective,
    simple,
)
from strata.exceptional import (
    _coresolution,
    _tilting_summands,
    enumerate_complete_exceptional_sequences,
    enumerate_exceptional,
    is_exceptional,
    is_exceptional_sequence,
    is_tilting_module,
    left_mutation,
    right_mutation,
)

from helpers import (
    complete_sequences_by_lists,
    conjugate_rep,
    interval_rep,
    order_into_exceptional_sequence,
)


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
    good = (s1, s2)
    assert is_exceptional_sequence(good)
    assert len(good) == A2.n
    # reversed order fails: Ext^1(S_1, S_2) != 0 with S_1 later
    assert not is_exceptional_sequence((s2, s1))
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
    assert len(res.reps) == 3


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


W3 = quiver(3, (1, 2), (1, 2), (2, 3), (2, 3))


@pytest.mark.parametrize("q,field,small,big", [
    (KR, QQ, 5, 15),
    (D4, GF(3), 4, 7),
    (W3, QQ, 4, 7),
], ids=["Kronecker", "D4-F3", "wild"])
def test_closure_memo_answers_smaller_bounds_by_filtering(monkeypatch, q, field, small, big):
    """One closure per (quiver, field), at the largest bound asked for: a
    smaller bound lists the dimension vectors of a fresh enumeration, and a
    larger one builds the closure again."""
    monkeypatch.setattr(exceptional, "_CLOSURES", {})
    builds = []
    fresh = exceptional.enumerate_exceptional

    def counting(*args):
        builds.append(args[2])
        return fresh(*args)

    monkeypatch.setattr(exceptional, "enumerate_exceptional", counting)
    held = exceptional._closure(q, field, big)
    assert exceptional._closure(q, field, big) is held
    for bound in (small, 1, 0):
        got = exceptional._closure(q, field, bound)
        assert [r.dims for r in got] == [r.dims for r in fresh(q, field, bound).reps]
    assert builds == [big]
    larger = exceptional._closure(q, field, big + 2)
    assert [r.dims for r in larger] == [r.dims for r in fresh(q, field, big + 2).reps]
    assert builds == [big, big + 2]
    assert exceptional._CLOSURES[q, field] == (big + 2, larger)


def test_kronecker_jh_verify_builds_the_closure_once(monkeypatch):
    """The sequence search and every isotypic Bongartz part of one
    Kronecker jh-verify at bound 5 read one closure."""
    from strata import perpcat, strat

    monkeypatch.setattr(exceptional, "_CLOSURES", {})
    perpcat.perp_algebra.cache_clear()
    perpcat.transport_into_perp.cache_clear()
    builds = []
    requests = []
    fresh = exceptional.enumerate_exceptional
    closure = perpcat._closure
    monkeypatch.setattr(exceptional, "enumerate_exceptional",
                        lambda *a: builds.append(a) or fresh(*a))
    monkeypatch.setattr(perpcat, "_closure", lambda *a: requests.append(a) or closure(*a))
    report = strat.verify_jordan_holder(KR, 5)
    assert report["pass"] and report["sequence_count"] == 5
    assert builds == [(KR, QQ, 5)]
    assert requests and all(a[:2] == (KR, QQ) and a[2] <= 5 for a in requests)


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
        assert is_exceptional_sequence(s) and len(s) == A3.n


@pytest.mark.parametrize("q,field,bound,count", [
    (A4, QQ, 4, None),
    (D4, GF(3), 5, None),
    (D5, GF(3), 7, 2048),
    (KR, QQ, 7, None),
], ids=["A4", "D4-F3", "D5-F3", "Kronecker"])
def test_bitmask_search_matches_list_search(q, field, bound, count):
    """The same sequences, in the same order, as a depth-first search over a
    list-of-lists pair table."""
    seqs = enumerate_complete_exceptional_sequences(q, field, bound)
    reps = enumerate_exceptional(q, field, bound).reps
    assert seqs == complete_sequences_by_lists(reps, q.n)
    assert seqs and count in (None, len(seqs))


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
        assert ordered is not None and len(ordered) == A3.n


# --- the closure criterion of `_tilting_dims`, against decomposing T ---


def _decompose_verdict(T):
    """Tilting by the definition: rigid with n distinct summands."""
    return ext1_dim(T, T) == 0 and len(distinct_summands(decompose(T))) == T.quiver.n


def _candidates(members, T, prune):
    """C of the criterion, computed here from members (the exceptional
    modules up to total dimension |dim T|): the X with dim X <= dim T and
    Ext^1(X, T) = 0 = Ext^1(T, X); with prune, also <dim X, dim T> >= 1
    and <dim T, dim X> >= 1."""
    q, t = T.quiver, T.dims
    return [
        X.dims
        for X in members
        if X.total_dim <= T.total_dim
        and all(a <= b for a, b in zip(X.dims, t))
        and not (prune and (q.euler_form(X.dims, t) < 1 or q.euler_form(t, X.dims) < 1))
        and ext1_dim(X, T) == 0 == ext1_dim(T, X)
    ]


def _columns(C, n):
    return Mat(QQ, n, len(C), [x[v] for v in range(n) for x in C])


def _criterion(T, C):
    """(a) T rigid, (b) |C| = n, (c) dims of C independent, (d) dim T has
    positive coordinates in them."""
    n = T.quiver.n
    if ext1_dim(T, T) != 0 or len(C) != n:
        return False
    D = _columns(C, n)
    if not D.is_invertible():
        return False
    return all(c > 0 for c in D.solve(Mat.column(QQ, T.dims)).entries)


# (quiver, closure bound): each bound reaches every exceptional module that
# fits under a sum, which is a multiset of at most n + 1 members, each at
# most twice, of total dimension at most 8
CRITERION_QUIVERS = [
    (A2, 2),
    (A3, 3),
    (quiver(3, (1, 2), (3, 2)), 3),
    (A4, 4),
    (D4, 5),
    (KR, 8),
]


def test_tilting_criterion_matches_decompose_on_closure_sums():
    """On every sum of closure members in the corpus, is_tilting_module,
    the criterion recomputed here with and without the Euler-form pruning,
    and the decompose verdict agree. Some rigid sums that are not tilting
    still have n or more candidates, so (c) and (d) decide them."""
    inputs = rigid = tilting = crowded = 0
    for q, bound in CRITERION_QUIVERS:
        for field in (QQ, GF(2), GF(5)):
            members = enumerate_exceptional(q, field, bound).reps
            for size in range(1, q.n + 2):
                for combo in itertools.combinations_with_replacement(members, size):
                    if any(combo.count(x) > 2 for x in combo):
                        continue
                    T = direct_sum(list(combo))
                    if T.total_dim > 8:
                        continue
                    want = _decompose_verdict(T)
                    inputs += 1
                    tilting += want
                    assert is_tilting_module(T) is want, (q.describe(), field, T.dims)
                    if ext1_dim(T, T) != 0:
                        continue
                    rigid += 1
                    for prune in (True, False):
                        C = _candidates(members, T, prune)
                        assert _criterion(T, C) is want, (q.describe(), field, T.dims, prune)
                        crowded += prune and not want and len(C) >= q.n
    assert (inputs, rigid, tilting, crowded) == (8121, 1824, 165, 135)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "F5"])
def test_tilting_criterion_on_base_changed_a3_triples(field):
    """The 20 interval triples of A_3 under a random base change: the
    closure route and the decompose verdict both find the 5 tilting ones."""
    rng = Random(33)
    ivs = {(lo, hi): interval_rep(field, 3, lo, hi)
           for lo in (1, 2, 3) for hi in range(lo, 4)}
    found = set()
    for trip in itertools.combinations(sorted(ivs), 3):
        T = conjugate_rep(rng, direct_sum([ivs[t] for t in trip]))
        verdict = is_tilting_module(T)
        assert verdict is _decompose_verdict(T), trip
        if verdict:
            found.add(trip)
    assert len(found) == 5 and all((1, 3) in trip for trip in found)


def _module(q, field, *dims):
    """The direct sum of the exceptional modules of the given dims."""
    by_dims = {X.dims: X for X in enumerate_exceptional(q, field, max(map(sum, dims))).reps}
    return direct_sum([by_dims[d] for d in dims])


def test_each_condition_of_the_tilting_criterion_is_needed():
    """Each input below is rigid and not tilting, and fails exactly one of
    (b)-(d) on the pruned C, so leaving that condition out accepts it."""
    def pruned(T):
        return _candidates(enumerate_exceptional(T.quiver, T.field, T.total_dim).reps,
                           T, True)

    # (b): S_3 of A_3 is alone in C; its one vector is independent and
    # dim T is 1 times it
    T = _module(A3, QQ, (0, 0, 1))
    C = pruned(T)
    assert C == [(0, 0, 1)]
    assert _columns(C, 3).rank() == 1
    assert not _decompose_verdict(T) and not is_tilting_module(T)
    # (c): on A_5, C has 5 members but (0,0,0,1,1) + (0,1,1,0,0) =
    # (0,1,1,1,1), so dim T is also a combination with every coefficient
    # positive; without (c), "positive coordinates" would accept T
    A5 = linear_quiver(5)
    T = _module(A5, QQ, (0, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 1, 1, 1, 1))
    C = pruned(T)
    assert C == [(0, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 0, 1, 1), (0, 1, 1, 0, 0),
                 (0, 1, 1, 1, 1)]
    assert _columns(C, 5).rank() == 4
    half = Fraction(1, 2)
    m = [1, 1, half, half, half]
    assert tuple(sum(c * x[v] for c, x in zip(m, C)) for v in range(5)) == T.dims
    assert not _decompose_verdict(T) and not is_tilting_module(T)
    # (d): (1,1,1) + (0,0,1) of A_3 has three independent candidates, but
    # (0,1,1) has coordinate 0 in dim T
    T = _module(A3, QQ, (1, 1, 1), (0, 0, 1))
    C = pruned(T)
    assert C == [(0, 0, 1), (0, 1, 1), (1, 1, 1)]
    D = _columns(C, 3)
    assert D.is_invertible()
    assert D.solve(Mat.column(QQ, T.dims)).entries == (1, 0, 1)
    assert not _decompose_verdict(T) and not is_tilting_module(T)


def test_tilting_verdict_decomposes_nothing_and_leaves_the_memos(monkeypatch):
    """is_tilting_module reads T's Hom systems unmemoized: once the
    closure is built, a fresh T adds no entry to the rank or basis memo."""
    def no_decompose(*args, **kwargs):
        raise AssertionError("is_tilting_module decomposed")

    monkeypatch.setattr(exceptional, "decompose", no_decompose)
    monkeypatch.setattr(repcat, "decompose", no_decompose)
    rng = Random(7)
    exceptional._closure(A3, QQ, 6)
    ivs = {(lo, hi): interval_rep(QQ, 3, lo, hi) for lo in (1, 2, 3) for hi in range(lo, 4)}
    # tilting; rigid with |C| = n and a zero coordinate; not rigid
    for trip, want in ((((1, 1), (1, 2), (1, 3)), True),
                       (((1, 3), (3, 3)), False),
                       (((1, 1), (2, 2)), False)):
        T = conjugate_rep(rng, direct_sum([ivs[t] for t in trip]))
        sizes = (repcat._hom_rank.cache_info().currsize,
                 repcat._hom_space_memo.cache_info().currsize)
        assert is_tilting_module(T) is want
        assert (repcat._hom_rank.cache_info().currsize,
                repcat._hom_space_memo.cache_info().currsize) == sizes


def _tilting_coresolution(t):
    return _coresolution(t, _tilting_summands(t))


def test_coresolution_of_a2_tilting():
    t = direct_sum([projective(A2, QQ, 1), simple(A2, QQ, 1)])
    t0, t1 = _tilting_coresolution(t)
    assert t0.dims == (3, 2)
    assert t1.dims == (2, 0)


def test_coresolution_of_free_module():
    a = direct_sum([projective(A2, QQ, v) for v in A2.vertices()])
    t0, t1 = _tilting_coresolution(a)
    assert tuple(x - y for x, y in zip(t0.dims, t1.dims)) == a.dims


def test_coresolution_certificate_can_fail():
    t = direct_sum([projective(A2, QQ, 1), simple(A2, QQ, 1)])
    # add S_1 does not receive A injectively: it vanishes at vertex 2
    assert _coresolution(t, [simple(A2, QQ, 1)]) is None
    # A embeds in P_1 (+) P_1, but the cokernel S_1 lies outside add P_1
    assert _coresolution(t, [projective(A2, QQ, 1)]) is None
    # A embeds and T_1 has dims (10, 12) = 2 (1, 0) + 4 (2, 3), in the cone
    # of the summands' dims, but Ext^1(S_1, X) != 0 leaves T_1 not rigid
    x = next(r for r in enumerate_exceptional(KR, QQ, 5).reps if r.dims == (2, 3))
    s1 = simple(KR, QQ, 1)
    assert _coresolution(direct_sum([s1, x]), [s1, x]) is None


def test_coresolution_of_kronecker_preprojective_tilting():
    ex = {r.dims: r for r in enumerate_exceptional(KR, QQ, 5).reps}
    t0, t1 = _tilting_coresolution(direct_sum([ex[(1, 2)], ex[(2, 3)]]))
    assert t0.dims == (13, 21)
    assert t1.dims == (12, 18)


def test_coresolution_rejects_non_tilting():
    assert _tilting_summands(simple(A2, QQ, 1)) is None


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
                        assert is_exceptional_sequence(nxt)
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
    orbit = braid_orbit(order_into_exceptional_sequence(simples), bound)
    listed = {tuple(x.dims for x in s)
              for s in enumerate_complete_exceptional_sequences(q, field, bound)}
    assert len(orbit) == count
    assert orbit == listed

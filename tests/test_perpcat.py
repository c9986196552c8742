"""Universal extensions, Bongartz complements, perpendicular algebras."""

import dataclasses
import random

import pytest

from strata import perpcat
from strata.exactlin import GF, QQ, Mat
from strata.quiver import Arrow, Quiver, kronecker_quiver, linear_quiver
from strata.repcat import (
    Rep,
    RepMap,
    decompose,
    direct_sum,
    distinct_summands,
    end_dim,
    ext1_dim,
    free_module,
    hom_dim,
    is_isomorphic,
    orthogonal,
    projective,
    simple,
    universal_extension,
    zero_rep,
)
from strata.exceptional import is_exceptional, is_tilting_module
from strata.perpcat import (
    bongartz_complement,
    hom_category_presentation,
    lift_from_perp,
    perp_algebra,
    transport_into_perp,
)

from helpers import (
    bongartz_summands_by_decompose,
    conjugate_rep,
    interval_rep,
    is_acyclic,
    random_acyclic_quiver,
    random_mat,
    random_rep,
)


A2 = linear_quiver(2)
A3 = linear_quiver(3)
A4 = linear_quiver(4)
KR = kronecker_quiver()
D4 = Quiver(4, (Arrow("a", 1, 4), Arrow("b", 2, 4), Arrow("c", 3, 4)))


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


def test_universal_extension_a2():
    c, m = universal_extension(simple(A2, QQ, 1), free_module(A2, QQ))
    assert c == 1
    p1 = projective(A2, QQ, 1)
    assert is_isomorphic(m, direct_sum([p1, p1]))
    assert ext1_dim(simple(A2, QQ, 1), m) == 0


def test_universal_extension_with_no_extensions_is_split():
    p1 = projective(A2, QQ, 1)
    c, m = universal_extension(p1, free_module(A2, QQ))
    assert c == 0
    assert m == free_module(A2, QQ)


def test_universal_extension_rejects_non_exceptional():
    with pytest.raises(ValueError, match="exceptional"):
        universal_extension(kronecker_regular(QQ, 1), free_module(KR, QQ))


def test_bongartz_a2():
    m = bongartz_complement(simple(A2, QQ, 1))
    p1 = projective(A2, QQ, 1)
    assert is_isomorphic(m, direct_sum([p1, p1]))


def test_bongartz_a3():
    m = bongartz_complement(simple(A3, QQ, 1))
    assert sorted(p.dims for p in decompose(m)) == [
        (0, 0, 1),
        (1, 1, 1),
        (1, 1, 1),
    ]


def test_bongartz_kronecker():
    m = bongartz_complement(simple(KR, QQ, 1))
    assert m.dims == (6, 3)
    assert [p.dims for p in decompose(m)] == [(2, 1), (2, 1), (2, 1)]


def test_bongartz_completes_to_tilting():
    for q, v in ((A2, 1), (A3, 1), (A3, 2), (KR, 1)):
        x = simple(q, QQ, v)
        m = bongartz_complement(x)
        assert is_tilting_module(direct_sum([m, x]))
        assert hom_dim(x, m) == 0 and ext1_dim(x, m) == 0


def test_bongartz_rejects_projective():
    with pytest.raises(ValueError, match="projective"):
        bongartz_complement(projective(A3, QQ, 2))


def test_hom_category_presentation_rejects_a_big_endomorphism_ring():
    # End(S (+) S) has dimension 4, but the lone vertex has one trivial path
    s = simple(A2, QQ, 1)
    assert hom_category_presentation([direct_sum([s, s])]) is None


def test_perp_of_sink_projective():
    """Deleting the sink of A_2 leaves the one-vertex algebra at label 1."""
    pres = perp_algebra(projective(A2, QQ, 2))
    assert pres.branch == "projective"
    assert pres.algebra_quiver.n == 1
    assert pres.algebra_quiver.arrows == ()
    assert pres.algebra_quiver.label(1) == "1"
    assert [p.dims for p in pres.projectives_in_ambient] == [(1, 0)]


@pytest.mark.parametrize("q,field,vertices", [(A3, QQ, (1, 2)), (D4, GF(3), (1, 2, 3))],
                         ids=["A3", "D4-F3"])
def test_perp_of_base_changed_projective(q, field, vertices):
    """The projective branch is chosen by dimension vector, so a base-changed
    P_v gets the same algebra as P_v itself."""
    rng = random.Random(4)
    for v in vertices:
        p = projective(q, field, v)
        x = conjugate_rep(rng, p)
        while x == p:
            x = conjugate_rep(rng, p)
        pres, want = perp_algebra(x), perp_algebra(p)
        assert pres.branch == "projective"
        assert pres.algebra_quiver == want.algebra_quiver
        assert [m.dims for m in pres.projectives_in_ambient] == [
            m.dims for m in want.projectives_in_ambient
        ]


def test_perp_of_a2_regular_simple():
    pres = perp_algebra(simple(A2, QQ, 1))
    assert pres.branch == "bongartz"
    assert pres.algebra_quiver.n == 1
    assert [p.dims for p in pres.projectives_in_ambient] == [(1, 1)]


def test_perp_of_a3_sink_projective_keeps_labels():
    pres = perp_algebra(projective(A3, QQ, 3))
    q = pres.algebra_quiver
    assert q.n == 2
    assert [q.label(v) for v in q.vertices()] == ["1", "2"]
    assert len(q.arrows) == 1
    # projectives vanish at the deleted vertex
    assert [p.dims for p in pres.projectives_in_ambient] == [(1, 1, 0), (0, 1, 0)]


def test_perp_of_a3_source_simple():
    pres = perp_algebra(simple(A3, QQ, 1))
    q = pres.algebra_quiver
    assert pres.branch == "bongartz"
    assert q.n == 2
    assert [(a.source, a.target) for a in q.arrows] == [(2, 1)]
    assert [p.dims for p in pres.projectives_in_ambient] == [(0, 0, 1), (1, 1, 1)]


def test_perp_of_kronecker_simple():
    pres = perp_algebra(simple(KR, QQ, 1))
    assert pres.algebra_quiver.n == 1
    assert [p.dims for p in pres.projectives_in_ambient] == [(2, 1)]


def test_perp_rejects_non_exceptional():
    # twice each: a rejected input must not be memoized
    for _ in range(2):
        with pytest.raises(ValueError, match="exceptional"):
            perp_algebra(kronecker_regular(QQ, 1))
        with pytest.raises(ValueError, match="exceptional"):
            perp_algebra(direct_sum([simple(A2, QQ, 1), simple(A2, QQ, 2)]))


def test_perp_and_transport_memos_return_the_same_objects():
    x = simple(A3, QQ, 1)
    pres = perp_algebra(x)
    assert perp_algebra(Rep(A3, QQ, x.dims, x.maps)) is pres
    y = projective(A3, QQ, 3)
    z = transport_into_perp(pres, y)
    assert transport_into_perp(pres, Rep(A3, QQ, y.dims, y.maps)) is z
    # the memos keep every result: many other inputs evict nothing
    for c in range(2, 602):
        perp_algebra(Rep(A2, QQ, (1, 1), [Mat(QQ, 1, 1, [c])]))
    assert perp_algebra(x) is pres
    sink = perp_algebra(simple(A3, QQ, 3))
    ys = [Rep(A3, QQ, (1, 1, 0), [Mat(QQ, 1, 1, [c]), Mat(QQ, 0, 1, [])])
          for c in range(1, 8302)]
    first = transport_into_perp(sink, ys[0])
    for y in ys[1:]:
        transport_into_perp(sink, y)
    assert transport_into_perp(sink, ys[0]) is first


# (quiver, field, bound, dimension vectors left out). Decomposing the whole
# Bongartz complement of the Kronecker exceptional (3, 2) takes about two
# minutes, so the oracle leaves that one module out.
WHOLE_COMPLEMENT_CASES = [
    (A3, QQ, 3, ()),
    (D4, GF(3), 5, ()),
    (KR, QQ, 5, ((3, 2),)),
]


@pytest.mark.parametrize("q,field,bound,left_out", WHOLE_COMPLEMENT_CASES,
                         ids=["A3", "D4-F3", "Kronecker"])
def test_perp_algebra_matches_whole_complement(q, field, bound, left_out):
    """Oracle: decompose the universal extension against the whole free
    module and dedup by isomorphism; perp_algebra must store the same
    summands in the same order, and its quiver must count their Homs."""
    from strata.exceptional import enumerate_exceptional

    A = free_module(q, field)
    for x in enumerate_exceptional(q, field, bound).reps:
        if x.dims in left_out:
            continue
        c, m = universal_extension(x, A)
        pres = perp_algebra(x)
        if c == 0:
            assert pres.branch == "projective"
            continue
        old = []
        for p in decompose(m):
            if not any(is_isomorphic(p, d) for d in old):
                old.append(p)
        assert [p.dims for p in pres.projectives_in_ambient] == [d.dims for d in old]
        bq = pres.algebra_quiver
        for j in bq.vertices():
            counts = bq.path_counts_from(j)
            for jp in bq.vertices():
                assert counts[jp - 1] == hom_dim(old[jp - 1], old[j - 1]), (x.dims, j, jp)


# (quiver, field, bound) whose exceptional modules check the Euler-form rule
EULER_RULE_CASES = [
    (linear_quiver(4), QQ, 4),
    (D4, GF(3), 5),
    (KR, QQ, 7),
    (Quiver(5, (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 4), Arrow("d", 3, 5))),
     QQ, 7),
]


@pytest.mark.parametrize("q,field,bound", EULER_RULE_CASES,
                         ids=["A4", "D4-F3", "Kronecker", "D5"])
def test_euler_form_rule_matches_decomposing_every_part(q, field, bound):
    """Parts with <dim E, dim E> = 1 taken whole, isotypic parts certified,
    the rest decomposed only until n - 1 summands are known and the parts
    left over placed in their additive closure must give the summands of
    decomposing every part, multiplicities included, in the same order."""
    from strata.exceptional import enumerate_exceptional

    checked = 0
    for x in enumerate_exceptional(q, field, bound).reps:
        if perpcat._deleted_vertex(x) is not None:
            continue
        got = perpcat._complement_summands(perpcat._bongartz_parts(x))
        want = bongartz_summands_by_decompose(x)
        assert [p.dims for p in got] == [p.dims for p in want]
        checked += 1
    assert checked


def test_parts_taken_whole_are_rejected(monkeypatch):
    """Were every Bongartz part that the isotypic certificate splits taken
    whole instead, each non-projective Kronecker exceptional must raise, not
    present a wrong algebra. Every part there of Euler form other than 1
    is isotypic, so none reaches `decompose`. A part X^m taken whole has
    <dim, dim> = m^2, so the real-root invariant rejects it. The simple
    S_1 gets its perpendicular category by contracting vertex 1, so its
    Bongartz summands are checked on the route of the `bongartz` verb."""
    from strata.exceptional import enumerate_exceptional

    decomposed = []
    whole = []
    split = perpcat._isotypic_split

    def taken_whole(E, known):
        if split(E, known) is None:
            return None
        whole.append(E)
        return [E]

    monkeypatch.setattr(perpcat, "decompose", lambda E: decomposed.append(E) or [E])
    monkeypatch.setattr(perpcat, "_isotypic_split", taken_whole)
    failed = 0
    for x in enumerate_exceptional(KR, QQ, 7).reps:
        if perpcat._deleted_vertex(x) is not None:
            continue
        whole.clear()
        with pytest.raises(AssertionError, match="is not a real root"):
            if x.total_dim == 1:
                perpcat._complement_summands(perpcat._bongartz_parts(x))
            else:
                perp_algebra.__wrapped__(x)
        assert whole
        failed += 1
    assert failed == 6 and not decomposed


def test_non_rigid_left_over_part_is_rejected():
    """A part left undecomposed must be X^m, even when its dimension vector
    is m dim X: the non-rigid R_0 (+) P_1 (+) S_2 fails the isotypic
    certificate against P_1."""
    p1 = projective(KR, QQ, 1)
    rigid = direct_sum([p1, p1])
    non_rigid = direct_sum([kronecker_regular(QQ, 0), p1, simple(KR, QQ, 2)])
    assert non_rigid.dims == rigid.dims == (2, 4) and ext1_dim(non_rigid, non_rigid)
    assert perpcat._complement_summands([rigid, p1]) == [p1, p1, p1]
    with pytest.raises(AssertionError, match="not 2 copies"):
        perpcat._complement_summands([non_rigid, p1])


def _split_p1(p):
    """P_1 = (1, 1, 1, 1) of A_4 as the real roots (1, 1, 0, 0) and
    (0, 0, 1, 1), whose Euler form <(1, 1, 0, 0), (0, 0, 1, 1)> is -1."""
    if p.dims != (1, 1, 1, 1):
        return [p]
    return [interval_rep(QQ, 4, 1, 2), interval_rep(QQ, 4, 3, 4)]


# (decompose corrupted, the invariant of _complement_summands it breaks)
COMPLEMENT_CORRUPTIONS = [
    # drops P_1, a second copy of the parts taken whole
    (lambda E: decompose(E)[:-1], "add up to dimension"),
    # merges the two summands of each decomposed part
    (lambda E: [E], "is not a real root"),
    (lambda E: [r for p in decompose(E) for r in _split_p1(p)], "negative Euler form"),
]


@pytest.mark.parametrize("corrupt,message", COMPLEMENT_CORRUPTIONS,
                         ids=["sum", "real-root", "pairwise"])
def test_complement_invariant_catches_a_corrupted_decompose(monkeypatch, corrupt, message):
    """The Bongartz parts of the A_4 exceptional (1, 1, 1, 0) are P_1 twice
    and (1, 1, 2, 1) = (0, 0, 1, 0) + P_1 and (1, 2, 2, 1) = (0, 1, 1, 0) +
    P_1, which are decomposed. Each corruption breaks one invariant of the
    summand multiset and nothing before it: without that check
    `perp_algebra` succeeds or fails another check."""
    from strata.exceptional import enumerate_exceptional

    x = next(r for r in enumerate_exceptional(A4, QQ, 3).reps if r.dims == (1, 1, 1, 0))
    perp_algebra.__wrapped__(x)
    monkeypatch.setattr(perpcat, "decompose", corrupt)
    with pytest.raises(AssertionError, match=message):
        perp_algebra.__wrapped__(x)


def test_perp_algebra_checks_the_summand_count(monkeypatch):
    """With the summands of one dimension vector left out, perp_algebra
    finds n - 2 distinct summands and fails its count."""
    from strata.exceptional import enumerate_exceptional

    x = next(r for r in enumerate_exceptional(A4, QQ, 3).reps if r.dims == (1, 1, 1, 0))
    summands = perpcat._complement_summands
    monkeypatch.setattr(
        perpcat,
        "_complement_summands",
        lambda ext: [p for p in summands(ext) if p.dims != (0, 1, 1, 0)],
    )
    with pytest.raises(AssertionError, match="2 distinct summands, want 3"):
        perp_algebra.__wrapped__(x)


@pytest.mark.parametrize("q,field,dims,isotypic",
                         [(KR, QQ, (2, 3), True), (D4, GF(3), (0, 1, 1, 1), False)],
                         ids=["Kronecker", "D4-F3"])
def test_dropped_summand_fails_the_add_certificate(monkeypatch, q, field, dims, isotypic):
    """With the first summand found dropped before the check, the part left
    over is no nonnegative integer combination of the others. The
    Kronecker part (2, 4) is isotypic, so there the summand (1, 2) is also
    hidden from the isotypic certificate, in the summands found and in the
    mutation closure: the certificate declines, and `_in_add` rejects."""
    from strata.exceptional import enumerate_exceptional

    x = next(r for r in enumerate_exceptional(q, field, sum(dims)).reps if r.dims == dims)
    perp_algebra.__wrapped__(x)
    checked = []
    in_add = perpcat._in_add

    def drop_first(E, summands):
        checked.append(E)
        return in_add(E, summands[1:])

    monkeypatch.setattr(perpcat, "_in_add", drop_first)
    if isotypic:
        split = perpcat._isotypic_split
        closure = perpcat._closure
        declined = []

        def hide_first(E, known):
            if not known:  # the whole part (1, 2), visited first
                return split(E, known)
            first = next(iter(known))
            out = split(E, {d: X for d, X in known.items() if d != first})
            declined.append((first, out))
            return out

        monkeypatch.setattr(perpcat, "_isotypic_split", hide_first)
        monkeypatch.setattr(
            perpcat, "_closure", lambda *a: [r for r in closure(*a) if r.dims != (1, 2)]
        )
    with pytest.raises(AssertionError, match="not in add"):
        perp_algebra.__wrapped__(x)
    assert checked
    if isotypic:
        assert declined == [((1, 2), None)]


def test_euler_gram_rejects_a_wrong_presentation():
    """<dim P'_i, dim P'_j> must be the number of paths j ~> i of Q': a
    dropped arrow, a doubled arrow and two swapped projectives all fail."""
    pres = perp_algebra(simple(A3, QQ, 2))
    assert pres.branch == "bongartz"
    q, ps = pres.algebra_quiver, pres.projectives_in_ambient
    perpcat._check_euler_gram(q, ps)
    (r,) = q.arrows
    doubled = Quiver(2, (r, Arrow("r2", r.source, r.target)))
    for wrong_q, wrong_ps in ((Quiver(2, ()), ps), (doubled, ps), (q, ps[::-1])):
        with pytest.raises(ValueError, match=r"<dim P'_\d, dim P'_\d> = "):
            perpcat._check_euler_gram(wrong_q, wrong_ps)


def test_perp_algebra_records_end_dim():
    labels = ["End(X) for X = dim (0, 1, 1)", "End(S_1)", "End(S_1)"]
    for x, label in zip((projective(A3, QQ, 2), simple(A3, QQ, 1), simple(KR, QQ, 1)), labels):
        assert perp_algebra(x).source_end_dim == end_dim(x) == 1
        assert perp_algebra(x).source_label == label


def test_perp_algebra_has_one_vertex_fewer():
    from strata.exceptional import enumerate_exceptional

    for q in (A2, A3, KR):
        for x in enumerate_exceptional(q, QQ, 3).reps:
            pres = perp_algebra(x)
            assert pres.algebra_quiver.n == q.n - 1
            assert is_acyclic(pres.algebra_quiver.n, pres.algebra_quiver.arrows)


def test_transported_projectives_are_projectives():
    """The equivalence sends the j-th stored projective to P_j of the new algebra."""
    for x in (projective(A3, QQ, 3), simple(A3, QQ, 1), simple(A2, QQ, 1)):
        pres = perp_algebra(x)
        bq = pres.algebra_quiver
        for j in bq.vertices():
            z = transport_into_perp(pres, pres.projectives_in_ambient[j - 1])
            assert is_isomorphic(z, projective(bq, QQ, j)), (
                f"transport of stored projective {j} is {z.dims}"
            )


def _restricted(y, v, subq):
    maps = [m for a, m in zip(y.quiver.arrows, y.maps) if v not in (a.source, a.target)]
    return Rep(subq, y.field, y.dims[: v - 1] + y.dims[v:], maps)


def _random_vanishing_at(rng, q, field, v):
    dims = [0 if w == v else rng.randint(0, 2) for w in q.vertices()]
    return Rep(q, field, dims, [
        random_mat(rng, field, dims[a.target - 1], dims[a.source - 1]) for a in q.arrows
    ])


def test_transport_restriction_branch():
    """Deleting v: transport is restriction, lift is extension by zero, and
    transport(lift(z)) is z itself, not merely isomorphic to it."""
    pres = perp_algebra(projective(A2, QQ, 2))
    z = transport_into_perp(pres, simple(A2, QQ, 1))
    assert z.dims == (1,)
    rng = random.Random(17)
    for field in (QQ, GF(3)):
        for _ in range(12):
            q = random_acyclic_quiver(rng, max_vertices=4)
            for v in q.vertices():
                pres = perp_algebra(projective(q, field, v))
                assert pres.branch == "projective"
                subq = pres.algebra_quiver
                assert subq == q.delete_vertex(v)
                for _ in range(2):
                    y = _random_vanishing_at(rng, q, field, v)
                    assert transport_into_perp(pres, y) == _restricted(y, v, subq)
                    z = random_rep(rng, subq, field, max_dim=2)
                    lifted = lift_from_perp(pres, z)
                    assert lifted.dim(v) == 0
                    assert _restricted(lifted, v, subq) == z
                    assert all(
                        m.rows * m.cols == 0
                        for a, m in zip(q.arrows, lifted.maps)
                        if v in (a.source, a.target)
                    )
                    assert transport_into_perp(pres, lifted) == z


def test_transport_rejects_non_perpendicular():
    bongartz = perp_algebra(simple(A3, QQ, 1))
    deletion = perp_algebra(projective(A3, QQ, 3))
    cases = [
        (bongartz, projective(A3, QQ, 2), "perpendicular"),
        # Y_3 != 0, so Y is not perpendicular to P_3
        (deletion, simple(A3, QQ, 3), "perpendicular"),
        (deletion, projective(A3, QQ, 2), "perpendicular"),
        (bongartz, projective(A3, GF(5), 3), "field"),
        (deletion, simple(A3, GF(5), 1), "field"),
        (bongartz, simple(A2, QQ, 1), "quiver"),
        (deletion, simple(A2, QQ, 1), "quiver"),
    ]
    # twice each: a rejected input must not be memoized
    for _ in range(2):
        for pres, y, match in cases:
            with pytest.raises(ValueError, match=match):
                transport_into_perp(pres, y)


def test_transport_contract_rejects_a_corrupted_presentation():
    """The dimension contract of transport_into_perp fails, instead of a
    wrong module coming back, on a presentation with its one arrow dropped
    (Bongartz branch of the A_4 exceptional I_2 = (1, 1, 0, 0)) or with
    P'_1 swapped for P'_2 (vertex-deletion branch of P_3 of A_3)."""
    bongartz = perp_algebra(interval_rep(QQ, 4, 1, 2))
    bq = bongartz.algebra_quiver
    assert len(bq.arrows) == 1 and len(bongartz.radical_generators) == 1
    dropped = dataclasses.replace(
        bongartz, algebra_quiver=Quiver(bq.n, (), bq.labels), radical_generators=()
    )
    deletion = perp_algebra(projective(A3, QQ, 3))
    p1, p2 = deletion.projectives_in_ambient
    swapped = dataclasses.replace(deletion, projectives_in_ambient=(p2, p2))
    for good, bad, y, dims in (
        (bongartz, dropped, projective(A4, QQ, 1), (1, 0, 1)),
        (deletion, swapped, p1, (1, 1)),
    ):
        assert transport_into_perp(good, y).dims == dims
        with pytest.raises(AssertionError, match="transport dimension contract failed"):
            transport_into_perp(bad, y)


def test_transport_rejects_a_hom_basis_missing_a_map(monkeypatch):
    """Precomposition with a radical generator must land in the span of the
    target projective's Hom basis. With the last basis map of that target
    dropped, transporting P_1 + P_1 of A_4 into the perpendicular category
    of I_2 = (1, 1, 0, 0) raises; the presentation is a fresh copy, so the
    transport memo cannot answer."""
    pres = perp_algebra(interval_rep(QQ, 4, 1, 2))
    assert len(pres.radical_generators) == 1
    y = direct_sum([projective(A4, QQ, 1)] * 2)
    a = pres.algebra_quiver.arrows[0]
    target = pres.projectives_in_ambient[a.target - 1]
    full = perpcat.hom_space
    assert len(full(target, y)) == 2
    fresh = dataclasses.replace(pres)
    monkeypatch.setattr(
        perpcat, "hom_space", lambda P, Y: full(P, Y)[:-1] if P == target else full(P, Y)
    )
    with pytest.raises(AssertionError, match="precomposition left the Hom space"):
        transport_into_perp(fresh, y)


@pytest.mark.parametrize("q,field", [(A4, QQ), (A4, GF(3)), (D4, QQ), (D4, GF(3))],
                         ids=["A4", "A4-F3", "D4", "D4-F3"])
def test_presentation_records_the_deleted_vertex(q, field):
    """The vertex-deletion branch records v for P_v, the vertex that
    `_deleted_vertex` finds; a Bongartz presentation records none."""
    from strata.exceptional import enumerate_exceptional

    for x in enumerate_exceptional(q, field, 5).reps:
        pres = perp_algebra(x)
        v = perpcat._deleted_vertex(x)
        assert pres.deleted_vertex == v
        assert (v is None) == (pres.branch == "bongartz")
    for v in q.vertices():
        assert perp_algebra(projective(q, field, v)).deleted_vertex == v


def test_lift_then_transport_round_trip():
    rng = random.Random(5)
    for x in (simple(A3, QQ, 1), simple(KR, QQ, 1), projective(A3, QQ, 3)):
        pres = perp_algebra(x)
        bq = pres.algebra_quiver
        for _ in range(4):
            z = random_rep(rng, bq, QQ, max_dim=2)
            y = lift_from_perp(pres, z)
            assert hom_dim(x, y) == 0 and ext1_dim(x, y) == 0
            back = transport_into_perp(pres, y)
            assert is_isomorphic(back, z)


def test_transport_then_lift_round_trip():
    x = simple(A3, QQ, 1)
    pres = perp_algebra(x)
    for y in (projective(A3, QQ, 1), projective(A3, QQ, 3)):
        z = transport_into_perp(pres, y)
        assert is_isomorphic(lift_from_perp(pres, z), y)


def test_lift_preserves_hom_and_ext():
    """The inverse equivalence matches Hom and Ext dimensions both ways."""
    rng = random.Random(9)
    x = simple(A3, QQ, 1)
    pres = perp_algebra(x)
    bq = pres.algebra_quiver
    for _ in range(4):
        z1 = random_rep(rng, bq, QQ, max_dim=2)
        z2 = random_rep(rng, bq, QQ, max_dim=2)
        y1 = lift_from_perp(pres, z1)
        y2 = lift_from_perp(pres, z2)
        assert hom_dim(y1, y2) == hom_dim(z1, z2)
        assert ext1_dim(y1, y2) == ext1_dim(z1, z2)


def test_lift_preserves_exceptionality():
    x = simple(KR, QQ, 1)
    pres = perp_algebra(x)
    bq = pres.algebra_quiver
    y = lift_from_perp(pres, simple(bq, QQ, 1))
    assert is_exceptional(y)
    assert y.dims == (2, 1)


def test_lift_of_zero():
    pres = perp_algebra(simple(A3, QQ, 1))
    y = lift_from_perp(pres, zero_rep(pres.algebra_quiver, QQ))
    assert y.total_dim == 0


def test_lift_rejects_another_field():
    """Z must live over the source's field, on both branches and for the
    zero module too."""
    for pres in (perp_algebra(simple(A3, QQ, 1)), perp_algebra(projective(A3, QQ, 3))):
        bq = pres.algebra_quiver
        for z in (simple(bq, GF(5), 1), zero_rep(bq, GF(5)), projective(bq, GF(5), 1)):
            with pytest.raises(ValueError, match="field"):
                lift_from_perp(pres, z)


def test_perp_over_prime_field():
    pres = perp_algebra(simple(A2, GF(5), 1))
    assert pres.algebra_quiver.n == 1
    assert [p.dims for p in pres.projectives_in_ambient] == [(1, 1)]


def test_bongartz_parts_reject_a_middle_term_outside_the_perpendicular_category(monkeypatch):
    """Each Bongartz part must be perpendicular to X. With X added to every
    universal extension's middle term (Hom(X, X) != 0), _bongartz_parts
    raises instead of handing the parts on."""
    x = simple(A3, QQ, 1)
    real = perpcat.universal_extension
    assert all(orthogonal(x, E) for E in perpcat._bongartz_parts(x))

    def with_x(X, P):
        c, E = real(X, P)
        return c, direct_sum([E, X])

    monkeypatch.setattr(perpcat, "universal_extension", with_x)
    with pytest.raises(AssertionError, match="escaped the perpendicular category"):
        perpcat._bongartz_parts(x)


def test_lift_round_trip_rejects_a_corrupted_presentation():
    """Lifting must transport back to the same dimension vector. With the
    one radical generator of the Bongartz presentation of I_2 = (1, 1, 0, 0)
    on A_4 replaced by the zero map, the lift of the simple at the arrow's
    source is that vertex's whole projective (1, 1, 1, 1), which transports
    back to (1, 0, 1), not (0, 0, 1)."""
    pres = perp_algebra(interval_rep(QQ, 4, 1, 2))
    (r,) = pres.radical_generators
    zero = RepMap(r.source, r.target, [Mat.zeros(QQ, b.rows, b.cols) for b in r.blocks])
    corrupted = dataclasses.replace(pres, radical_generators=(zero,))
    a = pres.algebra_quiver.arrows[0]
    z = simple(pres.algebra_quiver, QQ, a.source)
    assert z.dims == (0, 0, 1)
    assert pres.projectives_in_ambient[a.source - 1].dims == (1, 1, 1, 1)
    assert lift_from_perp(pres, z).dims != (1, 1, 1, 1)
    with pytest.raises(AssertionError, match="lift round trip changed the dimension vector"):
        lift_from_perp(corrupted, z)


# (id, quiver) whose non-sink simples the contraction is checked on
CONTRACTION_QUIVERS = [
    ("A3", A3),
    ("A3-alt", Quiver(3, (Arrow("a", 2, 1), Arrow("b", 2, 3)))),
    ("A4", A4),
    ("A4-alt", Quiver(4, (Arrow("a", 1, 2), Arrow("b", 3, 2), Arrow("c", 3, 4)))),
    ("D4", D4),
    ("D4-mid", Quiver(4, (Arrow("a", 1, 4), Arrow("b", 4, 2), Arrow("c", 4, 3)))),
    ("Kronecker", KR),
    ("3-Kronecker", kronecker_quiver(3)),
    ("double-Kronecker",
     Quiver(3, (Arrow("a", 1, 2), Arrow("b", 1, 2), Arrow("c", 2, 3), Arrow("d", 2, 3)))),
]
CONTRACTION_FIELDS = [QQ, GF(2), GF(3)]


def _check_contraction_matches_bongartz(q, field, bound, rng):
    """The contracted presentation of every non-sink S_v against the
    Bongartz route: the same algebra quiver and projective dims, equal
    transported dims for every closure member perpendicular to S_v, and
    lift then transport giving each transported module and a random module
    back exactly. Returns the number of closure members transported."""
    from strata.exceptional import _closure

    closure = _closure(q, field, bound)
    checked = 0
    for v in q.vertices():
        if v in q.sinks():
            continue
        x = simple(q, field, v)
        pres = perp_algebra(x)
        assert (pres.branch, pres.contracted_vertex, pres.radical_generators) == (
            "bongartz", v, ())
        parts = perpcat._complement_summands(perpcat._bongartz_parts(x))
        old = perpcat._hom_presentation(x, "bongartz", distinct_summands(parts))
        assert pres.algebra_quiver == old.algebra_quiver, (q, v)
        assert [p.dims for p in pres.projectives_in_ambient] == [
            p.dims for p in old.projectives_in_ambient
        ]
        bq = pres.algebra_quiver
        zs = [random_rep(rng, bq, field, max_dim=2)]
        for y in closure:
            if orthogonal(x, y):
                z = transport_into_perp(pres, y)
                assert z.dims == transport_into_perp(old, y).dims, (q, v, y.dims)
                zs.append(z)
        for z in zs:
            assert transport_into_perp(pres, lift_from_perp(pres, z)) == z
        checked += len(zs) - 1
    return checked


@pytest.mark.parametrize("field", CONTRACTION_FIELDS, ids=["QQ", "F2", "F3"])
@pytest.mark.parametrize("q", [c[1] for c in CONTRACTION_QUIVERS],
                         ids=[c[0] for c in CONTRACTION_QUIVERS])
def test_contraction_matches_the_bongartz_route(q, field):
    assert _check_contraction_matches_bongartz(q, field, 6, random.Random(q.n))


@pytest.mark.parametrize("field", CONTRACTION_FIELDS, ids=["QQ", "F2", "F3"])
def test_contraction_matches_the_bongartz_route_on_random_quivers(field):
    rng = random.Random(23)
    checked = 0
    for _ in range(16):
        q = random_acyclic_quiver(rng, max_vertices=5)
        checked += _check_contraction_matches_bongartz(q, field, 5, rng)
    assert checked


def test_contraction_builds_no_universal_extension_decomposition_or_hom_space(monkeypatch):
    """On a non-sink S_v, perp_algebra, transport and lift read the quiver
    and the arrow matrices alone: no universal extension, no decomposition
    and no Hom basis is made."""
    from strata import repcat
    from strata.exceptional import _closure

    def forbidden(*args, **kwargs):
        raise AssertionError("general machinery called on a simple")

    closures = [(q, _closure(q, GF(3), 4)) for _, q in CONTRACTION_QUIVERS]
    for module in (perpcat, repcat):
        for name in ("universal_extension", "decompose", "hom_space"):
            monkeypatch.setattr(module, name, forbidden)
    for q, members in closures:
        for v in q.vertices():
            if v in q.sinks():
                continue
            x = simple(q, GF(3), v)
            pres = perp_algebra.__wrapped__(x)
            assert pres.contracted_vertex == v
            for y in members:
                if orthogonal(x, y):
                    z = transport_into_perp(pres, y)
                    assert transport_into_perp(pres, lift_from_perp(pres, z)) == z


def test_transport_euler_check_rejects_a_swapped_vertex_map():
    """dim (TY)_j must be <dim P'_j, dim Y>. On 2 <- 1 -> 3 the perpendicular
    category of S_1 is mod of two vertices with no arrow, so a presentation
    with its vertex map swapped still transports (1, 1, 0), to (1, 0)
    instead of (0, 1), and the dimension contract, which reads total
    dimensions only, cannot tell."""
    q = Quiver(3, (Arrow("a", 1, 2), Arrow("b", 1, 3)))
    pres = perp_algebra(simple(q, QQ, 1))
    assert pres.vertex_map == (3, 2)
    swapped = dataclasses.replace(pres, vertex_map=pres.vertex_map[::-1])
    y = pres.projectives_in_ambient[1]
    assert y.dims == (1, 1, 0)
    assert transport_into_perp(pres, y).dims == (0, 1)
    with pytest.raises(AssertionError, match="transport Euler check failed at vertex 1"):
        transport_into_perp(swapped, y)


def test_contracted_presentation_checks_the_euler_gram(monkeypatch):
    """The coinduced projectives must pair under the Euler form as the
    paths of the contracted quiver count: with P_1 and P_2 of A_3 with
    vertex 2 contracted handed over in the wrong order, perp_algebra
    raises instead of presenting them."""
    projectives = perpcat._projectives
    monkeypatch.setattr(perpcat, "_projectives", lambda q, f: projectives(q, f)[::-1])
    with pytest.raises(ValueError, match=r"<dim P'_\d, dim P'_\d> = "):
        perp_algebra.__wrapped__(simple(A3, QQ, 2))

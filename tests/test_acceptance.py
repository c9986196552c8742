"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Every test prints a single ``[n] <name>: PASS/FAIL`` line (visible under
``pytest -s``) and enforces the stated runtime budget where one exists.
All checks are exact; there are no tolerances to tune.
"""

import itertools
import random
import time

from strata import (
    GF,
    QQ,
    bongartz_complement,
    direct_sum,
    endo_rings_of_simples,
    enumerate_complete_exceptional_sequences,
    enumerate_exceptional,
    assemble_tree,
    ext1_dim,
    flatten_to_chain,
    free_module,
    hom_dim,
    is_tilting_module,
    kronecker_demo,
    kronecker_quiver,
    lift_from_perp,
    linear_quiver,
    perp_algebra,
    simple,
    standard_stratification,
    stratify_along_sequence,
    verify_jordan_holder,
    verify_ringel_tilting,
)
from strata.quiver import is_acyclic
from strata.repcat import is_isomorphic

from helpers import random_acyclic_quiver, random_rep


def _verdict(number, name, body, budget=None):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[{number}] {name}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = budget is None or elapsed < budget
    note = f"{elapsed:.1f}s" if budget is None else f"{elapsed:.1f}s < {budget:.0f}s"
    print(f"[{number}] {name}: {'PASS' if within else 'FAIL'} ({note})")
    assert within, f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"


def _three_quivers():
    return (linear_quiver(2), linear_quiver(3), kronecker_quiver())


def test_1_euler_identity_on_random_reps():
    def body():
        rng = random.Random(97)
        quivers = 0
        reps = 0
        for field in (QQ, GF(5)):
            for _ in range(6):
                q = random_acyclic_quiver(rng, max_vertices=5)
                quivers += 1
                for _ in range(10):
                    m = random_rep(rng, q, field, max_dim=4)
                    n = random_rep(rng, q, field, max_dim=4)
                    reps += 2
                    got = hom_dim(m, n) - ext1_dim(m, n)
                    assert got == q.euler_form(m.dims, n.dims), (
                        f"Euler form mismatch on {m.dims} -> {n.dims}"
                    )
        assert quivers >= 5 and reps >= 200

    _verdict(1, "Euler identity on random representations", body, budget=30.0)


def test_2_jordan_holder_on_a2():
    def body():
        q = linear_quiver(2)
        report = verify_jordan_holder(q, bound=2)
        assert report["sequence_count"] == 3
        assert report["pass"] is True
        assert report["warnings"] == []
        expected = sorted(f.division_ring_dim for f in endo_rings_of_simples(q))
        for chain in report["chains"]:
            assert len(chain["factors"]) == 2
            assert sorted(chain["factors"]) == expected == [1, 1]

    _verdict(2, "Jordan-Holder on A_2 at bound 2", body, budget=5.0)


def test_3_jordan_holder_on_a3_and_kronecker():
    def body():
        for q in (linear_quiver(3), kronecker_quiver()):
            report = verify_jordan_holder(q, bound=3)
            assert report["pass"] is True, f"violations on {q.describe()}"
            assert report["warnings"] == []
            assert report["sequence_count"] > 0
            for chain in report["chains"]:
                assert len(chain["factors"]) == q.n
                assert all(d == 1 for d in chain["factors"])

    _verdict(3, "Jordan-Holder on A_3 and Kronecker at bound 3", body, budget=60.0)


def test_4_bongartz_complement_completes_to_tilting():
    def body():
        tested = 0
        for q in _three_quivers():
            found = enumerate_exceptional(q, QQ, 3)
            free = free_module(q, QQ)
            for x in found:
                if ext1_dim(x, free) == 0:
                    continue  # projective, no complement defined
                tested += 1
                t = direct_sum([bongartz_complement(x), x])
                assert is_tilting_module(t), f"not tilting for X = {x.dims}"
        assert tested == 6

    _verdict(4, "Bongartz complement completes to a tilting module", body, budget=60.0)


def test_5_tilting_endo_rings_match_simples():
    def body():
        q = linear_quiver(3)
        found = enumerate_exceptional(q, QQ, 3)
        tiltings = []
        for triple in itertools.combinations(list(found), 3):
            t = direct_sum(list(triple))
            if is_tilting_module(t):
                tiltings.append(t)
        assert len(tiltings) == 5
        for t in tiltings:
            report = verify_ringel_tilting(q, t)
            assert report["pass"] is True
            assert sorted(report["summand_end_dims"]) == sorted(report["simple_end_dims"])

    _verdict(5, "tilting summand endo rings match the simples on A_3", body, budget=60.0)


def test_6_perpendicular_reduction_shape_and_simples():
    def body():
        for q in _three_quivers():
            found = enumerate_exceptional(q, QQ, 3)
            free = free_module(q, QQ)
            for x in found:
                pres = perp_algebra(x)
                bq = pres.algebra_quiver
                assert bq.n == q.n - 1
                assert is_acyclic(bq.n, bq.arrows)
                if ext1_dim(x, free) != 0:
                    continue
                # x is projective: the perpendicular simples must be exactly
                # the ambient simples at the surviving vertices
                assert pres.branch == "projective"
                survivors = {q.label(v): v for v in q.vertices()}
                for j in bq.vertices():
                    lifted = lift_from_perp(pres, simple(bq, QQ, j))
                    ambient = simple(q, QQ, survivors[bq.label(j)])
                    assert is_isomorphic(lifted, ambient)

    _verdict(6, "perpendicular algebra shape and surviving simples", body)


def test_7_kronecker_regular_simples_demo():
    def body():
        report = kronecker_demo(5)
        assert report["pass"] is True
        assert report["regular_count"] == 6
        assert report["pairwise_hom_zero"] is True
        assert report["pairwise_ext_zero"] is True
        assert report["self_ext_dims"] == [1] * 6
        assert report["any_exceptional"] is False

    _verdict(7, "Kronecker regular simples over F_5", body, budget=5.0)


def test_8_cross_path_factor_consistency():
    def body():
        cases = ((linear_quiver(2), 2), (linear_quiver(3), 3), (kronecker_quiver(), 3))
        trees = 0
        for q, bound in cases:
            base = sorted(standard_stratification(q).factor_dims())
            seqs = enumerate_complete_exceptional_sequences(q, QQ, bound)
            assert seqs
            for seq in seqs:
                chain = stratify_along_sequence(q, seq)
                assert sorted(chain.factor_dims()) == base
                for seed in (0, 1):
                    tree = assemble_tree(q, seq, seed=seed)
                    trees += 1
                    leaves = sorted(f.division_ring_dim for f in tree.leaf_factors())
                    flat = flatten_to_chain(tree)
                    assert sorted(flat.factor_dims()) == leaves == base
        assert trees >= 20

    _verdict(8, "stratification paths agree on factor multisets", body)

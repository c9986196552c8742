"""Stratification chains, trees, and the composition-series verification."""

import pytest

from strata.exactlin import GF, QQ
from strata.quiver import Arrow, Quiver, kronecker_quiver, linear_quiver
from strata.repcat import decompose, direct_sum, projective, simple
from strata.exceptional import (
    enumerate_complete_exceptional_sequences,
    order_into_exceptional_sequence,
)
from strata.perpcat import perp_algebra
from strata.strat import (
    Chain,
    FactorDescriptor,
    Leaf,
    Node,
    assemble_tree,
    endo_rings_of_simples,
    flatten_to_chain,
    is_derived_simple,
    kronecker_demo,
    standard_stratification,
    stratify_along_sequence,
    verify_jordan_holder,
    verify_ringel_tilting,
)

from helpers import interval_rep


A2 = linear_quiver(2)
A3 = linear_quiver(3)
KR = kronecker_quiver()
ONE = Quiver(1, ())


def test_factor_descriptor_rejects_nonpositive_dim():
    with pytest.raises(ValueError, match="positive"):
        FactorDescriptor(0, "End(S_1)")


def test_chain_validation():
    f = FactorDescriptor(1, "End(S_1)")
    with pytest.raises(ValueError, match="one factor per algebra"):
        Chain((A2,), (f, f), ())
    with pytest.raises(ValueError, match="shrinking step"):
        Chain((A2, ONE), (f, f), ())
    with pytest.raises(ValueError, match="shrink by one"):
        Chain((A2, A3), (f, f), (simple(A2, QQ, 2),))
    with pytest.raises(ValueError, match="wrong stage algebra"):
        Chain((A2, ONE), (f, f), (simple(A3, QQ, 1),))


def test_standard_stratification_a2():
    c = standard_stratification(A2)
    assert c.length == 2
    assert c.factor_dims() == (1, 1)
    assert [f.source_label for f in c.factors] == ["End(S_2)", "End(S_1)"]
    assert [a.n for a in c.algebras] == [2, 1]
    # the sink simple S_2 = P_2 is the peeled generator
    assert [g.dims for g in c.generators] == [(0, 1)]


def test_standard_stratification_a3():
    c = standard_stratification(A3)
    assert c.length == 3
    assert [f.source_label for f in c.factors] == [
        "End(S_3)",
        "End(S_2)",
        "End(S_1)",
    ]


def test_standard_stratification_kronecker():
    c = standard_stratification(KR)
    assert c.factor_dims() == (1, 1)
    assert [g.dims for g in c.generators] == [(0, 1)]


def test_standard_stratification_one_vertex():
    c = standard_stratification(ONE)
    assert c.length == 1
    assert c.generators == ()


def test_standard_stratification_orders_sinks_numerically():
    """Labels compare as numbers where possible, so sink 2 peels before 10."""
    q = Quiver(
        3,
        (Arrow("a", 1, 2), Arrow("b", 1, 3)),
        labels=("1", "10", "2"),
    )
    c = standard_stratification(q)
    assert [f.source_label for f in c.factors] == [
        "End(S_2)",
        "End(S_10)",
        "End(S_1)",
    ]


def test_stratify_along_simple_sequence():
    c = stratify_along_sequence(A2, [simple(A2, QQ, 1), simple(A2, QQ, 2)])
    assert c.factor_dims() == (1, 1)
    assert [f.source_label for f in c.factors] == ["End(S_2)", "End(S_1)"]


def test_stratify_along_projective_sequence():
    c = stratify_along_sequence(A2, [projective(A2, QQ, 1), simple(A2, QQ, 1)])
    assert c.factor_dims() == (1, 1)
    assert c.algebras[1].n == 1


def test_stratify_every_kronecker_sequence():
    seqs = enumerate_complete_exceptional_sequences(KR, QQ, 3)
    assert len(seqs) == 3
    for s in seqs:
        c = stratify_along_sequence(KR, s)
        assert c.length == 2
        assert sorted(c.factor_dims()) == [1, 1]


def test_stratify_rejects_wrong_length():
    with pytest.raises(ValueError, match="complete sequence"):
        stratify_along_sequence(A2, [simple(A2, QQ, 1)])


def test_stratify_rejects_wrong_quiver():
    with pytest.raises(ValueError, match="wrong quiver"):
        stratify_along_sequence(A2, [simple(A3, QQ, 1), simple(A3, QQ, 2)])


def test_stratify_rejects_non_sequence():
    """(S_2, S_1) is not exceptional over A_2: Ext^1(S_1, S_2) != 0."""
    with pytest.raises(ValueError, match="perpendicular"):
        stratify_along_sequence(A2, [simple(A2, QQ, 2), simple(A2, QQ, 1)])


def test_endo_rings_of_simples():
    facs = endo_rings_of_simples(A3)
    assert [f.division_ring_dim for f in facs] == [1, 1, 1]
    assert [f.source_label for f in facs] == ["End(S_1)", "End(S_2)", "End(S_3)"]
    over_f7 = endo_rings_of_simples(KR, GF(7))
    assert [f.division_ring_dim for f in over_f7] == [1, 1]


def test_verify_jordan_holder_a2():
    report = verify_jordan_holder(A2, 2)
    assert set(report) == {
        "quiver",
        "n",
        "sequence_count",
        "chains",
        "pass",
        "warnings",
    }
    assert report["n"] == 2
    assert report["sequence_count"] == 3
    assert report["pass"] is True
    assert report["warnings"] == []
    for entry in report["chains"]:
        assert set(entry) == {"generators", "factors"}
        assert entry["factors"] == [1, 1]
        assert len(entry["generators"]) == 1


def test_verify_jordan_holder_kronecker_low_bound():
    report = verify_jordan_holder(KR, 1)
    assert report["sequence_count"] == 1
    assert report["pass"] is True


def test_verify_jordan_holder_d5_sequence_count():
    """D_5 has n! h^n / |W| = 5! 8^5 / (2^4 5!) = 2048 complete sequences,
    all of whose roots have total dimension at most h - 1 = 7."""
    d5 = Quiver(5, (Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 4),
                    Arrow("d", 3, 5)))
    report = verify_jordan_holder(d5, 7, field=GF(3))
    assert report["sequence_count"] == 2048
    assert report["pass"] is True
    assert report["warnings"] == []


def test_verify_jordan_holder_over_prime_field():
    report = verify_jordan_holder(A2, 2, field=GF(3))
    assert report["sequence_count"] == 3
    assert report["pass"] is True


def test_verify_jordan_holder_bound_zero_has_no_sequence():
    """Below every simple there is nothing to verify, and the report says so."""
    report = verify_jordan_holder(A2, 0)
    assert report["sequence_count"] == 0
    assert report["pass"] is False
    assert any("no complete exceptional sequence" in w for w in report["warnings"])


def test_verify_ringel_tilting_a2():
    t = direct_sum([projective(A2, QQ, 1), simple(A2, QQ, 1)])
    report = verify_ringel_tilting(A2, t)
    assert report["pass"] is True
    assert report["summand_end_dims"] == [1, 1]
    assert report["simple_end_dims"] == [1, 1]
    assert report["coresolution_ok"] is True


def test_verify_ringel_tilting_free_module():
    a = direct_sum([projective(A3, QQ, v) for v in A3.vertices()])
    assert verify_ringel_tilting(A3, a)["pass"] is True


def test_verify_ringel_rejects_non_tilting():
    with pytest.raises(ValueError, match="not tilting"):
        verify_ringel_tilting(A2, simple(A2, QQ, 1))
    with pytest.raises(ValueError, match="wrong quiver"):
        verify_ringel_tilting(A3, simple(A2, QQ, 1))


def test_is_derived_simple():
    assert is_derived_simple(ONE)
    assert not is_derived_simple(A2)
    assert not is_derived_simple(KR)


def test_kronecker_demo_five():
    report = kronecker_demo(5)
    assert report["regular_count"] == 6
    assert report["ordered_pairs"] == 30
    assert report["pass"] is True
    assert report["pairwise_hom_zero"] and report["pairwise_ext_zero"]
    assert report["self_ext_dims"] == [1] * 6
    assert report["any_exceptional"] is False
    assert "not derived module categories of rings" in report["explanation"]


def test_kronecker_demo_two():
    report = kronecker_demo(2)
    assert report["regular_count"] == 3
    assert report["ordered_pairs"] == 6
    assert report["pass"] is True


def test_leaf_validation():
    with pytest.raises(ValueError, match="one vertex"):
        Leaf(A2, FactorDescriptor(1, "End(S_1)"))


def test_node_validation():
    f = FactorDescriptor(1, "End(S_1)")
    leaf = Leaf(ONE, f)
    with pytest.raises(ValueError, match="two vertices"):
        Node(ONE, simple(ONE, QQ, 1), leaf, leaf)
    with pytest.raises(ValueError, match="wrong quiver"):
        Node(A2, simple(A3, QQ, 1), leaf, leaf)


def test_flatten_bare_leaf():
    f = FactorDescriptor(1, "End(S_1)")
    c = flatten_to_chain(Leaf(ONE, f))
    assert c.length == 1
    assert c.factors == (f,)
    assert c.generators == ()


def test_flatten_single_cut_tree():
    """A cut along P_1 over A_2 leaves the vertex-2 algebra on the left."""
    p1 = projective(A2, QQ, 1)
    leftq = perp_algebra(p1).algebra_quiver
    tree = Node(
        A2,
        p1,
        Leaf(leftq, FactorDescriptor(1, "End(S_2)")),
        Leaf(ONE, FactorDescriptor(1, "End(X) for X = dim (1, 1)")),
    )
    chain = flatten_to_chain(tree)
    assert chain.length == 2
    assert chain.factor_dims() == (1, 1)
    assert [g.dims for g in chain.generators] == [(1, 1)]


def test_flatten_rejects_mismatched_subtree_algebra():
    p1 = projective(A2, QQ, 1)
    bad = Node(
        A2,
        p1,
        Leaf(ONE, FactorDescriptor(1, "End(S_1)")),  # labels should say 2
        Leaf(ONE, FactorDescriptor(1, "End(X)")),
    )
    with pytest.raises(ValueError, match="does not match"):
        flatten_to_chain(bad)


@pytest.mark.parametrize(
    "parts, message",
    [
        ([projective(A2, QQ, 1)] * 2, "repeated summand"),
        ([simple(A2, QQ, 1), simple(A2, QQ, 2)], "not rigid"),
    ],
)
def test_flatten_rejects_bad_cut_generator(parts, message):
    leaf = Leaf(ONE, FactorDescriptor(1, "End(S_1)"))
    with pytest.raises(ValueError, match=message):
        flatten_to_chain(Node(A2, direct_sum(parts), leaf, leaf))


def test_assemble_tree_is_deterministic():
    seqs = enumerate_complete_exceptional_sequences(A3, QQ, 3)

    def shape(t):
        if isinstance(t, Leaf):
            return ("leaf", t.factor.division_ring_dim)
        return ("node", t.right_generator.dims, shape(t.left), shape(t.right))

    a = assemble_tree(A3, seqs[5], seed=2)
    b = assemble_tree(A3, seqs[5], seed=2)
    assert shape(a) == shape(b)


def test_assemble_and_flatten_all_a3_sequences():
    seqs = enumerate_complete_exceptional_sequences(A3, QQ, 3)
    assert len(seqs) == 16
    for s in seqs:
        for seed in (0, 3):
            tree = assemble_tree(A3, s, seed=seed)
            chain = flatten_to_chain(tree)
            assert chain.length == 3
            assert sorted(chain.factor_dims()) == [1, 1, 1]
            leaf_dims = sorted(f.division_ring_dim for f in tree.leaf_factors())
            assert leaf_dims == sorted(chain.factor_dims())


def test_assemble_produces_multi_summand_cuts():
    """A fully rigid sequence admits suffix cuts of width two."""
    ivs = [interval_rep(QQ, 3, 1, 1), interval_rep(QQ, 3, 1, 2),
           interval_rep(QQ, 3, 1, 3)]
    tilt = order_into_exceptional_sequence(ivs)
    widths = set()
    for seed in range(8):
        tree = assemble_tree(A3, tilt, seed=seed)
        node = tree
        while isinstance(node, Node):
            widths.add(len(decompose(node.right_generator)))
            node = node.left
        chain = flatten_to_chain(tree)
        assert sorted(chain.factor_dims()) == [1, 1, 1]
    assert 2 in widths, f"no two-summand cut appeared, widths {widths}"


def test_flatten_matches_direct_stratification():
    seqs = enumerate_complete_exceptional_sequences(KR, QQ, 3)
    for s in seqs:
        direct = stratify_along_sequence(KR, s)
        flat = flatten_to_chain(assemble_tree(KR, s, seed=1))
        assert sorted(flat.factor_dims()) == sorted(direct.factor_dims())
        assert flat.length == direct.length


def test_chain_report_schema():
    c = standard_stratification(A3)
    rep = c.report()
    assert rep["factors"] == [1, 1, 1]
    assert rep["generators"] == [[0, 0, 1], [0, 1]]

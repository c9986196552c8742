import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from strata.exactlin import GF, QQ
from strata.quiver import (
    Arrow,
    ParseError,
    Quiver,
    is_acyclic,
    kronecker_quiver,
    linear_quiver,
    parse_quiver_text,
    topological_sort,
)

from helpers import random_acyclic_quiver


def test_construction_validation():
    with pytest.raises(ValueError):
        Quiver(2, [Arrow("a", 1, 3)])
    with pytest.raises(ValueError):
        Quiver(2, [Arrow("a", 1, 2), Arrow("a", 1, 2)])
    with pytest.raises(ValueError):
        Quiver(1, [Arrow("a", 1, 1)])  # loop
    with pytest.raises(ValueError):
        Quiver(2, [Arrow("a", 1, 2), Arrow("b", 2, 1)])  # 2-cycle
    with pytest.raises(ValueError):
        Quiver(2, labels=("x",))
    with pytest.raises(ValueError):
        Quiver(2, labels=("x", "x"))


def test_is_acyclic():
    assert is_acyclic(2, [Arrow("a", 1, 2)])
    assert not is_acyclic(2, [Arrow("a", 1, 2), Arrow("b", 2, 1)])
    assert is_acyclic(1, [])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.data())
def test_topological_sort_is_smallest_order(count, data):
    """Checked against every permutation, on edge multisets with loops."""
    vertex = st.integers(0, max(count - 1, 0))
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=12)) if count else []
    order = topological_sort(count, edges)
    position = {v: i for i, v in enumerate(order)}
    # a vertex is placed only after every edge into it, so edges go forward
    for a, b in edges:
        if b in position:
            assert position.get(a, count) < position[b]
    smallest = next(
        (
            list(p)
            for p in itertools.permutations(range(count))
            if all(p.index(a) < p.index(b) for a, b in edges)
        ),
        None,
    )
    if smallest is None:  # no order at all: the graph has a cycle
        assert len(order) < count
    else:
        assert order == smallest


def test_parallel_arrows_allowed():
    k = kronecker_quiver()
    assert k.n == 2
    assert len(k.arrows) == 2
    assert all(a.source == 1 and a.target == 2 for a in k.arrows)


def test_euler_form_hand_values():
    a2 = linear_quiver(2)
    # <(1,0),(0,1)> = 0 - 1*1 = -1: one extension of S_1 by S_2
    assert a2.euler_form((1, 0), (0, 1)) == -1
    assert a2.euler_form((0, 1), (1, 0)) == 0
    assert a2.euler_form((1, 1), (1, 1)) == 1
    k = kronecker_quiver()
    assert k.euler_form((1, 1), (1, 1)) == 0
    assert k.euler_form((1, 0), (1, 2)) == -3
    with pytest.raises(ValueError):
        a2.euler_form((1,), (0, 1))


def test_euler_form_bilinear():
    rng = random.Random(2)
    for _ in range(20):
        q = random_acyclic_quiver(rng)
        d = [rng.randint(-3, 3) for _ in q.vertices()]
        e = [rng.randint(-3, 3) for _ in q.vertices()]
        f = [rng.randint(-3, 3) for _ in q.vertices()]
        lhs = q.euler_form([x + y for x, y in zip(d, e)], f)
        assert lhs == q.euler_form(d, f) + q.euler_form(e, f)
        rhs = q.euler_form(f, [x + y for x, y in zip(d, e)])
        assert rhs == q.euler_form(f, d) + q.euler_form(f, e)


def test_sinks():
    assert linear_quiver(2).sinks() == (2,)
    assert linear_quiver(3).sinks() == (3,)
    assert kronecker_quiver().sinks() == (2,)
    fork = Quiver(3, [Arrow("a", 1, 2), Arrow("b", 1, 3)])
    assert fork.sinks() == (2, 3)
    assert fork.smallest_labeled_sink() == 2


def test_sinks_nonempty_random():
    rng = random.Random(9)
    for _ in range(30):
        q = random_acyclic_quiver(rng)
        assert len(q.sinks()) >= 1


def test_label_ordering_numeric_aware():
    q = Quiver(3, [Arrow("a", 3, 1)], labels=("10", "2", "9"))
    # sinks are vertices 1 and 2 with labels "10" and "2"; numeric order picks "2"
    assert set(q.sinks()) == {1, 2}
    assert q.smallest_labeled_sink() == 2


def test_delete_vertex_inherits_labels():
    a3 = linear_quiver(3)
    sub = a3.delete_vertex(2)
    assert sub.n == 2
    assert sub.labels == ("1", "3")
    assert sub.arrows == ()
    sub2 = a3.delete_vertex(1)
    assert sub2.labels == ("2", "3")
    assert len(sub2.arrows) == 1
    assert sub2.arrows[0].name == "a2"
    assert (sub2.arrows[0].source, sub2.arrows[0].target) == (1, 2)


def test_delete_vertex_preserves_acyclicity_random():
    rng = random.Random(13)
    for _ in range(20):
        q = random_acyclic_quiver(rng)
        v = rng.randint(1, q.n)
        sub = q.delete_vertex(v)  # constructor re-checks acyclicity
        assert sub.n == q.n - 1


def test_path_counts():
    a3 = linear_quiver(3)
    assert a3.path_counts_from(1) == (1, 1, 1)
    assert a3.path_counts_from(3) == (0, 0, 1)
    k = kronecker_quiver()
    assert k.path_counts_from(1) == (1, 2)
    assert k.path_count_total() == 4
    assert a3.path_count_total() == 6


def test_parse_round_trip():
    text = """
# demo input
field Fp 5
vertices 2
arrow a 1 2
arrow b 1 2
"""
    field, q, rest = parse_quiver_text(text)
    assert field == GF(5)
    assert q == kronecker_quiver()
    assert rest == []


def test_parse_defaults_to_rationals():
    field, q, rest = parse_quiver_text("vertices 1\n")
    assert field == QQ
    assert q.n == 1


def test_parse_hands_back_rep_lines():
    text = "vertices 2\narrow a 1 2\nrep\ndim 1 1\ndim 2 1\nmap a 1\n"
    _, _, rest = parse_quiver_text(text)
    assert rest[0][1] == ["rep"]
    assert rest[1][1] == ["dim", "1", "1"]
    # line numbers are 1-based and point into the original text
    assert rest[0][0] == 3


def test_parse_errors_cite_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_quiver_text("vertices 2\nbogus x\n")
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_quiver_text("vertices 2\narrow a 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_quiver_text("field Fp 4\nvertices 1\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_quiver_text("arrow a 1 2\n")


def test_canonical_text_ignores_comments():
    t1 = "field Q\nvertices 2\narrow a 1 2\n"
    t2 = "# hello\nfield Q\n\nvertices 2    \narrow a 1 2  # trailing\n"
    f1, q1, _ = parse_quiver_text(t1)
    f2, q2, _ = parse_quiver_text(t2)
    assert q1.canonical_text(f1) == q2.canonical_text(f2)

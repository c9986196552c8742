"""Stratifications of derived categories of path algebras.

A stratification is recorded as a Chain: hereditary algebras A_1, ..., A_n
whose quivers shrink by one vertex at a time, together with the exceptional
module peeled off at each step and the division ring it contributes. Every
complete exceptional sequence gives a chain (peel the last member, pass to
its perpendicular category, transport the rest, repeat), and the main
verification routine checks the composition-series statement empirically:
every chain has length n and factor multiset equal to the endomorphism
rings of the n simple modules. A chain's factors are read off the
presentations of its perpendicular categories, which record dim End of the
module they peel, so a chain runs one `end_dim` of its own, on its last
member.

Binary stratification trees (StratTree) record nested two-step cuts. A cut
is an exceptional sequence with a rigid sum and a hereditary Hom category,
such as a suffix of a complete sequence. stratification_trees yields every
tree whose cuts are suffixes of a complete sequence, in a fixed order, and
flatten_to_chain normalizes any tree to a chain by replaying each cut one
member at a time, in its order. By the Jordan-Hoelder theorem all of them
have the same factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .exactlin import GF, QQ, Field, Mat
from .quiver import Quiver, kronecker_quiver
from .repcat import (
    Rep,
    _hom_system_rank,
    direct_sum,
    end_dim,
    ext1_dim,
    projective,
    simple,
)
from .exceptional import (
    _coresolution,
    _tilting_summands,
    enumerate_complete_exceptional_sequences,
    is_exceptional_sequence,
)
from .perpcat import (
    PerpPresentation,
    _hom_presentation,
    _source_label,
    lift_from_perp,
    perp_algebra,
    transport_into_perp,
)


@dataclass(frozen=True)
class FactorDescriptor:
    """One stratification factor: a division ring over the ground field."""

    division_ring_dim: int
    source_label: str

    def __post_init__(self):
        if self.division_ring_dim < 1:
            raise ValueError(
                f"division ring dimension must be positive, got {self.division_ring_dim}"
            )


@dataclass(frozen=True, eq=False)
class Chain:
    """A full stratification: algebras shrinking one vertex per step.

    generators[i] is the exceptional module over algebras[i] whose
    perpendicular category is presented by algebras[i+1]; factors[i] is the
    division ring peeled off with it, and the last factor comes from the
    final one-vertex algebra.
    """

    algebras: tuple
    factors: tuple
    generators: tuple

    def __post_init__(self):
        if len(self.algebras) != len(self.factors):
            raise ValueError("need one factor per algebra")
        if len(self.generators) != len(self.algebras) - 1:
            raise ValueError("need one generator per shrinking step")
        for i, a in enumerate(self.algebras):
            if a.n != self.algebras[0].n - i:
                raise ValueError("algebras must shrink by one vertex per step")
        for g, a in zip(self.generators, self.algebras):
            if g.quiver != a:
                raise ValueError("generator lives over the wrong stage algebra")

    @property
    def length(self) -> int:
        return len(self.factors)

    def factor_dims(self) -> tuple:
        return tuple(f.division_ring_dim for f in self.factors)

    def report(self) -> dict:
        return {
            "generators": [list(g.dims) for g in self.generators],
            "factors": list(self.factor_dims()),
        }


@dataclass(frozen=True, eq=False)
class Leaf:
    """A derived-simple stage: one vertex, nothing left to cut."""

    algebra: Quiver
    factor: FactorDescriptor

    def __post_init__(self):
        if self.algebra.n != 1:
            raise ValueError(f"leaf algebra must have one vertex, got {self.algebra.n}")

    def leaf_factors(self) -> tuple:
        return (self.factor,)


@dataclass(frozen=True, eq=False)
class Node:
    """A two-step cut along cut, an exceptional sequence (a tuple of Reps).

    The left subtree lives over the perpendicular category of the cut, on
    n - len(cut) vertices; the right subtree over the Hom category of its
    members, whose P_j is cut[j-1], on len(cut) vertices. Construction
    checks quivers and vertex counts; flatten_to_chain validates the rest
    when it replays the cut.
    """

    algebra: Quiver
    cut: tuple
    left: "StratTree"
    right: "StratTree"

    def __post_init__(self):
        n, k = self.algebra.n, len(self.cut)
        if n < 2:
            raise ValueError("a cut needs at least two vertices")
        if any(x.quiver != self.algebra for x in self.cut):
            raise ValueError("cut member lives over the wrong quiver")
        if not 1 <= k < n:
            raise ValueError(f"a cut over {n} vertices has 1 to {n - 1} members, got {k}")
        if self.right.algebra.n != k:
            raise ValueError(f"right subtree has {self.right.algebra.n} vertices, cut has {k}")
        if self.left.algebra.n != n - k:
            raise ValueError(f"left subtree has {self.left.algebra.n} vertices, needs {n - k}")

    def leaf_factors(self) -> tuple:
        return self.left.leaf_factors() + self.right.leaf_factors()


StratTree = Union[Leaf, Node]


def endo_rings_of_simples(q: Quiver, field: Field = QQ) -> tuple:
    """The expected factor multiset: End(S_v) for every vertex v."""
    out = []
    for v in q.vertices():
        s = simple(q, field, v)
        out.append(FactorDescriptor(end_dim(s), f"End(S_{q.label(v)})"))
    return tuple(out)


def standard_stratification(q: Quiver, field: Field = QQ) -> Chain:
    """Peel the smallest-labeled sink, stratum by stratum.

    This is the chain of the sequence of simples (S_{v_n}, ..., S_{v_1}),
    where v_1 is the smallest-labeled sink of q and v_{i+1} that of q with
    v_1, ..., v_i deleted. At a sink v the simple S_v is projective, so
    every step runs the vertex-deletion branch of the perpendicular
    algebra and the factors are the endomorphism rings of the simples.
    """
    order = []
    cur = q
    while cur.n > 0:
        v = cur.smallest_labeled_sink()
        order.append(q.labels.index(cur.label(v)) + 1)
        cur = cur.delete_vertex(v)
    return stratify_along_sequence(q, [simple(q, field, v) for v in reversed(order)])


def _complete_members(q: Quiver, sequence) -> list:
    """The members of sequence, which must be q.n >= 1 modules over q."""
    members = list(sequence)
    if len(members) != q.n or q.n == 0:
        raise ValueError(
            f"need a complete sequence of {q.n} members, got {len(members)}"
        )
    for x in members:
        if x.quiver != q:
            raise ValueError("sequence member lives over the wrong quiver")
    return members


def stratify_along_sequence(q: Quiver, sequence) -> Chain:
    """The chain of a complete exceptional sequence (X_1, ..., X_n).

    X_n is peeled first: its factor is End(X_n) and the remaining members
    transport into its perpendicular category, which they generate as a
    complete sequence again. A peeled member's factor is read off its
    presentation, which recorded dim End when it certified the member
    exceptional, and so is its label; only the last member left, on one
    vertex, runs `end_dim` and `_source_label`.
    Raises when the input is not a complete exceptional sequence over q (a
    failed transport is the symptom).
    """
    members = _complete_members(q, sequence)
    pres_list, peeled, (last,) = _peel(members, q.n - 1)
    algebras = (q,) + tuple(pres.algebra_quiver for pres in pres_list)
    ends = [pres.source_end_dim for pres in pres_list] + [end_dim(last)]
    labels = [pres.source_label for pres in pres_list] + [_source_label(algebras[-1], last)]
    factors = tuple(FactorDescriptor(d, s) for d, s in zip(ends, labels))
    return Chain(algebras, factors, tuple(peeled))


def _forward_ext_free(seq) -> bool:
    """No Ext^1 from a member to a later one: with an exceptional sequence,
    whose backward Ext^1 vanishes already, the sum is then rigid."""
    return all(
        ext1_dim(seq[i], seq[j]) == 0
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
    )


class _NotACut(ValueError):
    """An exceptional sequence whose sum is not rigid or whose Hom category
    is not hereditary."""


def _summand_presentation(cut: tuple) -> PerpPresentation:
    """The Hom category of a cut, which must be an exceptional sequence.

    Its sum must be rigid and the Hom category of its members, in their
    order, hereditary, else _NotACut says which fails; vertex j of the
    returned algebra stands for cut[j-1]. The members' Euler form must give
    the path counts of that algebra (`_check_euler_gram`).
    """
    if not is_exceptional_sequence(cut):
        raise ValueError("cut is not an exceptional sequence")
    if not _forward_ext_free(cut):
        raise _NotACut("cut is not rigid")
    pres = _hom_presentation(direct_sum(cut), "summands", cut)
    if pres is None:
        raise _NotACut("cut's Hom category is not hereditary")
    return pres


def _peel(seq, k):
    """Peel the last k members of an exceptional sequence, one at a time.

    Each peeled member's perpendicular category receives the members left
    before it. Returns (presentations outer to inner, the peeled members as
    transported when peeled, the first len(seq) - k members transported).
    Error messages number members by their position in seq.
    """
    work = list(seq)
    pres_list = []
    peeled = []
    for _ in range(k):
        x = work.pop()
        pres = perp_algebra(x)
        moved = []
        for i, y in enumerate(work):
            try:
                moved.append(transport_into_perp(pres, y))
            except ValueError as e:
                raise ValueError(
                    f"member {i + 1} is not left-perpendicular to member "
                    f"{len(work) + 1}: {e}"
                ) from e
        work = moved
        pres_list.append(pres)
        peeled.append(x)
    return pres_list, peeled, work


def _flatten_seq(tree: StratTree, field: Field) -> tuple:
    if isinstance(tree, Leaf):
        return (simple(tree.algebra, field, 1),)
    cpres = _summand_presentation(tree.cut)
    if tree.right.algebra != cpres.algebra_quiver:
        raise ValueError(
            f"right subtree algebra {tree.right.algebra.describe()} does not "
            f"match the Hom category {cpres.algebra_quiver.describe()}"
        )
    right_seq = _flatten_seq(tree.right, field)
    lifted_right = [lift_from_perp(cpres, z) for z in right_seq]
    pres_list, _, _ = _peel(tree.cut, len(tree.cut))
    if tree.left.algebra != pres_list[-1].algebra_quiver:
        raise ValueError(
            f"left subtree algebra {tree.left.algebra.describe()} does not "
            f"match the perpendicular algebra "
            f"{pres_list[-1].algebra_quiver.describe()}"
        )
    left_seq = list(_flatten_seq(tree.left, field))
    for pres in reversed(pres_list):
        left_seq = [lift_from_perp(pres, z) for z in left_seq]
    return tuple(left_seq) + tuple(lifted_right)


def flatten_to_chain(tree: StratTree) -> Chain:
    """Normalize a stratification tree to a chain over the same algebra.

    Cuts with several members are replayed one member at a time in their
    order; the resulting complete sequence is then stratified. The
    multiset of leaf factors always matches the factor multiset of the
    returned chain.
    """
    if isinstance(tree, Leaf):
        return Chain((tree.algebra,), (tree.factor,), ())
    seq = _flatten_seq(tree, tree.cut[0].field)
    return stratify_along_sequence(tree.algebra, seq)


def stratification_trees(q: Quiver, sequence) -> Iterator[StratTree]:
    """Every stratification tree of a complete exceptional sequence.

    Each node cuts a suffix of its (transported) sequence that is a cut:
    its sum is rigid and its members have a hereditary Hom category, whose
    P_j is the cut's j-th member (Yoneda). The suffix of length one always
    qualifies. The left subtree is a tree of the members left, transported
    into the perpendicular category of the cut; the right subtree is a tree
    of the projectives (P_1, ..., P_k) of the Hom category. The order is
    fixed: cut length ascending, then left subtree, then right subtree,
    each in this order again. The right subtrees of a cut depend only on
    its Hom quiver, so they are built once and shared by the left ones.
    """
    return _trees(q, _complete_members(q, sequence))


def _trees(quiver: Quiver, members: list) -> Iterator[StratTree]:
    n = len(members)
    if n == 1:
        x = members[0]
        yield Leaf(quiver, FactorDescriptor(end_dim(x), _source_label(quiver, x)))
        return
    for k in range(n - 1, 0, -1):
        cut = tuple(members[k:])
        try:
            cq = _summand_presentation(cut).algebra_quiver
        except _NotACut:
            continue
        rights = tuple(_trees(cq, [projective(cq, cut[0].field, j) for j in cq.vertices()]))
        pres_list, _, head = _peel(members, n - k)
        for left in _trees(pres_list[-1].algebra_quiver, head):
            for right in rights:
                yield Node(quiver, cut, left, right)


def verify_jordan_holder(q: Quiver, bound: int, field: Field = QQ) -> dict:
    """Stratify along every complete exceptional sequence and compare factors.

    The composition-series statement: every chain has length n and factor
    multiset equal to the endomorphism rings of the n simples. A bound
    below every complete sequence gives a warning and no pass, and so does
    a sequence whose chain raises ValueError or AssertionError (a broken
    presentation or transport): its warning reads "sequence i: message",
    numbering sequences from 1, and it adds no chain.
    """
    seqs = enumerate_complete_exceptional_sequences(q, field, bound)
    expected = sorted(f.division_ring_dim for f in endo_rings_of_simples(q, field))
    chains = []
    warnings = []
    all_ok = True
    for i, s in enumerate(seqs, 1):
        try:
            chain = stratify_along_sequence(q, s)
        except (ValueError, AssertionError) as e:
            warnings.append(f"sequence {i}: {e}")
            all_ok = False
            continue
        ok = chain.length == q.n and sorted(chain.factor_dims()) == expected
        all_ok = all_ok and ok
        chains.append(chain.report())
    if not seqs:
        warnings.append("no complete exceptional sequence at this bound")
        all_ok = False
    return {
        "quiver": q.describe(),
        "n": q.n,
        "sequence_count": len(seqs),
        "chains": chains,
        "pass": all_ok,
        "warnings": warnings,
    }


def verify_ringel_tilting(q: Quiver, T: Rep) -> dict:
    """Compare the summand endomorphism rings of a tilting module with the simples'."""
    if T.quiver != q:
        raise ValueError("tilting module lives over the wrong quiver")
    distinct = _tilting_summands(T)
    if distinct is None:
        raise ValueError("module is not tilting")
    coresolution_ok = _coresolution(T, distinct) is not None
    summand_dims = sorted(end_dim(d) for d in distinct)
    simple_dims = sorted(
        f.division_ring_dim for f in endo_rings_of_simples(q, T.field)
    )
    return {
        "quiver": q.describe(),
        "n": q.n,
        "summand_end_dims": summand_dims,
        "simple_end_dims": simple_dims,
        "coresolution_ok": coresolution_ok,
        "pass": summand_dims == simple_dims and coresolution_ok,
    }


# kronecker_demo runs Hom and Ext on all (p + 1) p ordered pairs, so its
# cost grows quadratically in p; p = 251 takes about 0.7 s and 21-23 MB peak
# RSS on one 2-core machine.
KRONECKER_DEMO_MAX_PRIME = 251


def kronecker_demo(p: int) -> dict:
    """The regular simples of the Kronecker quiver over F_p, all at once.

    The p + 1 modules R_lam = (1, 1; a = 1, b = lam) and R_inf = (1, 1;
    a = 0, b = 1) are pairwise Hom- and Ext-orthogonal, each with a
    one-dimensional space of self-extensions; none is exceptional. The
    report records why stratifications cannot pass through them. Primes
    above KRONECKER_DEMO_MAX_PRIME (251) are rejected with a ValueError
    before any module is built.
    """
    if p > KRONECKER_DEMO_MAX_PRIME:
        raise ValueError(
            f"kronecker-demo takes a prime of at most {KRONECKER_DEMO_MAX_PRIME}, got {p}"
        )
    field = GF(p)
    kq = kronecker_quiver()
    # the arrow scalars (a, b) of R_0, ..., R_{p-1}, R_inf
    scalars = [(field.one, field.coerce(lam)) for lam in range(p)] + [(field.zero, field.one)]
    regs = [
        Rep(kq, field, (1, 1), {"a": Mat(field, 1, 1, (a,)), "b": Mat(field, 1, 1, (b,))})
        for a, b in scalars
    ]
    names = [f"R_{lam}" for lam in range(p)] + ["R_inf"]
    count = len(regs)
    cross_hom = []
    cross_ext = []
    self_hom = []
    self_ext = []
    # one unmemoized rank per ordered pair gives both Hom and Ext^1: no pair
    # is asked twice, so the Hom-rank memo would only grow
    for x in regs:
        for y in regs:
            rows, cols, rank = _hom_system_rank(x, y)
            hom, ext = (self_hom, self_ext) if x is y else (cross_hom, cross_ext)
            hom.append(cols - rank)
            ext.append(rows - rank)
    hom_zero = all(h == 0 for h in cross_hom)
    ext_zero = all(e == 0 for e in cross_ext)
    return {
        "prime": p,
        "regular_count": count,
        "ordered_pairs": count * (count - 1),
        "regulars": names,
        "pairwise_hom_zero": hom_zero,
        "pairwise_ext_zero": ext_zero,
        "self_hom_dims": self_hom,
        "self_ext_dims": self_ext,
        "any_exceptional": any(e == 0 for e in self_ext),
        "pass": hom_zero and ext_zero and set(self_hom) == set(self_ext) == {1},
        "explanation": (
            "Every regular simple has a one-dimensional space of "
            "self-extensions, so none is exceptional and none can serve as "
            "the generator of a stratification step whose factor is the "
            "derived category of a ring. The regular simples are pairwise "
            "orthogonal, so the regular part splits into infinitely many "
            "mutually orthogonal pieces as the field grows; a "
            "stratification refining the regular part must therefore use "
            "factors that are not derived module categories of rings."
        ),
    }

"""Stratifications of derived categories of path algebras.

A stratification is recorded as a Chain: hereditary algebras A_1, ..., A_n
whose quivers shrink by one vertex at a time, together with the exceptional
module peeled off at each step and the division ring it contributes. Every
complete exceptional sequence gives a chain (peel the last member, pass to
its perpendicular category, transport the rest, repeat), and the main
verification routine checks the composition-series statement empirically:
every chain has length n and factor multiset equal to the endomorphism
rings of the n simple modules.

Binary stratification trees (StratTree) record nested two-step cuts whose
cut object is a rigid multiplicity-free sum of exceptionals; flatten_to_
chain normalizes any such tree to a chain by ordering the cut summands into
an exceptional sequence and replaying the cuts one summand at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from .exactlin import GF, QQ, Field, Mat
from .quiver import Quiver, kronecker_quiver
from .repcat import (
    Rep,
    decompose,
    direct_sum,
    distinct_summands,
    end_dim,
    ext1_dim,
    hom_dim,
    projective,
    simple,
)
from .exceptional import (
    enumerate_complete_exceptional_sequences,
    is_tilting_module,
    order_into_exceptional_sequence,
    tilting_coresolution,
)
from .perpcat import (
    PerpPresentation,
    hom_category_presentation,
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


def _source_label(q: Quiver, x: Rep) -> str:
    if x.total_dim == 1:
        v = next(v for v in q.vertices() if x.dim(v) == 1)
        return f"End(S_{q.label(v)})"
    return f"End(X) for X = dim {tuple(x.dims)}"


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
    derived_simple: bool = True

    def __post_init__(self):
        if self.algebra.n != 1:
            raise ValueError(f"leaf algebra must have one vertex, got {self.algebra.n}")

    def leaf_factors(self) -> tuple:
        return (self.factor,)


@dataclass(frozen=True, eq=False)
class Node:
    """A two-step cut along right_generator.

    The left subtree lives over the perpendicular category of the
    generator, the right subtree over the Hom category of its summands;
    deep validation happens in flatten_to_chain, which replays the cut.
    """

    algebra: Quiver
    right_generator: Rep
    left: "StratTree"
    right: "StratTree"

    def __post_init__(self):
        if self.algebra.n < 2:
            raise ValueError("a cut needs at least two vertices")
        if self.right_generator.quiver != self.algebra:
            raise ValueError("right generator lives over the wrong quiver")
        if self.right_generator.total_dim == 0:
            raise ValueError("right generator must be nonzero")

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


def stratify_along_sequence(q: Quiver, sequence) -> Chain:
    """The chain of a complete exceptional sequence (X_1, ..., X_n).

    X_n is peeled first: its factor is End(X_n) and the remaining members
    transport into its perpendicular category, which they generate as a
    complete sequence again. Raises when the input is not a complete
    exceptional sequence over q (a failed transport is the symptom).
    """
    members = list(sequence)
    if len(members) != q.n or q.n == 0:
        raise ValueError(
            f"need a complete sequence of {q.n} members, got {len(members)}"
        )
    for x in members:
        if x.quiver != q:
            raise ValueError("sequence member lives over the wrong quiver")
    pres_list, peeled, (last,) = _iterated_perp(members[1:], members[:1])
    algebras = (q,) + tuple(pres.algebra_quiver for pres in pres_list)
    factors = tuple(
        FactorDescriptor(end_dim(x), _source_label(a, x))
        for a, x in zip(algebras, peeled + [last])
    )
    return Chain(algebras, factors, tuple(peeled))


def _summand_presentation(x: Rep) -> tuple:
    """Ordered distinct summands of a cut generator and their Hom category.

    The generator must be a multiplicity-free rigid sum of exceptionals
    whose summands order into an exceptional sequence.
    """
    if ext1_dim(x, x) != 0:
        raise ValueError("cut generator is not rigid")
    parts = decompose(x)
    if len(distinct_summands(parts)) != len(parts):
        raise ValueError("cut generator has a repeated summand")
    ordered = order_into_exceptional_sequence(parts)
    if ordered is None:
        raise ValueError("cut summands do not order into an exceptional sequence")
    members = tuple(ordered)
    cq, gens = hom_category_presentation(list(members))
    cpres = PerpPresentation(
        source=x,
        branch="summands",
        algebra_quiver=cq,
        projectives_in_ambient=members,
        radical_generators=gens,
    )
    return members, cpres


def _iterated_perp(members, others):
    """Perpendicular presentations of an exceptional sequence, one at a time.

    Peels members from the right; others ride along through every
    transport, numbered before the members in error messages. Returns
    (presentations outer to inner, the peeled members as transported when
    peeled, transported others).
    """
    work = list(members)
    side = list(others)
    pres_list = []
    peeled = []
    while work:
        x = work.pop()
        pres = perp_algebra(x)
        moved = []
        for i, y in enumerate(side + work):
            try:
                moved.append(transport_into_perp(pres, y))
            except ValueError as e:
                raise ValueError(
                    f"member {i + 1} is not left-perpendicular to member "
                    f"{len(side) + len(work) + 1}: {e}"
                ) from e
        side, work = moved[: len(side)], moved[len(side) :]
        pres_list.append(pres)
        peeled.append(x)
    return pres_list, peeled, side


def _flatten_seq(tree: StratTree, field: Field) -> tuple:
    if isinstance(tree, Leaf):
        return (simple(tree.algebra, field, 1),)
    members, cpres = _summand_presentation(tree.right_generator)
    if tree.right.algebra != cpres.algebra_quiver:
        raise ValueError(
            f"right subtree algebra {tree.right.algebra.describe()} does not "
            f"match the Hom category {cpres.algebra_quiver.describe()}"
        )
    right_seq = _flatten_seq(tree.right, field)
    lifted_right = [lift_from_perp(cpres, z) for z in right_seq]
    pres_list, _, _ = _iterated_perp(members, [])
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

    Cut generators with several summands are replayed one summand at a
    time in exceptional-sequence order; the resulting complete sequence is
    then stratified. The multiset of leaf factors always matches the
    factor multiset of the returned chain.
    """
    if isinstance(tree, Leaf):
        return Chain((tree.algebra,), (tree.factor,), ())
    field = tree.right_generator.field
    seq = _flatten_seq(tree, field)
    if len(seq) != tree.algebra.n:
        raise ValueError(
            f"tree flattens to {len(seq)} members over {tree.algebra.n} vertices"
        )
    return stratify_along_sequence(tree.algebra, seq)


def assemble_tree(q: Quiver, sequence, seed: int = 0) -> StratTree:
    """Build a stratification tree from a complete exceptional sequence.

    Each node cuts a random suffix of the (transported) sequence whose sum
    is rigid; the suffix of length one is always available, so the
    recursion never gets stuck. A fixed seed gives a fixed tree.
    """
    members = list(sequence)
    if len(members) != q.n or q.n == 0:
        raise ValueError(
            f"need a complete sequence of {q.n} members, got {len(members)}"
        )
    rng = random.Random(seed)

    def build(quiver, seq_members):
        n = len(seq_members)
        if n == 1:
            x = seq_members[0]
            return Leaf(
                quiver, FactorDescriptor(end_dim(x), _source_label(quiver, x))
            )
        valid = []
        for k in range(1, n):
            tail = seq_members[k:]
            rigid = all(
                ext1_dim(tail[i], tail[j]) == 0
                for i in range(len(tail))
                for j in range(i + 1, len(tail))
            )
            if rigid:
                valid.append(k)
        k = rng.choice(valid)
        x = direct_sum(seq_members[k:])
        ordered, cpres = _summand_presentation(x)
        right_members = [
            _hom_category_image(cpres, m, j + 1) for j, m in enumerate(ordered)
        ]
        right = build(cpres.algebra_quiver, right_members)
        pres_list, _, head = _iterated_perp(ordered, seq_members[:k])
        left = build(pres_list[-1].algebra_quiver, head)
        return Node(quiver, x, left, right)

    return build(q, members)


def _hom_category_image(cpres: PerpPresentation, m: Rep, j: int) -> Rep:
    """Image of the j-th cut summand in the Hom category: P_j over its quiver."""
    from .perpcat import _transport_unchecked

    z = _transport_unchecked(cpres, m)
    expected = projective(cpres.algebra_quiver, m.field, j)
    if z.dims != expected.dims:
        raise AssertionError(
            f"summand {j} transported to {z.dims}, want projective {expected.dims}"
        )
    return z


def verify_jordan_holder(q: Quiver, bound: int, field: Field = QQ) -> dict:
    """Stratify along every complete exceptional sequence and compare factors.

    The composition-series statement: every chain has length n and factor
    multiset equal to the endomorphism rings of the n simples. A bound
    below every complete sequence gives a warning and no pass.
    """
    seqs = enumerate_complete_exceptional_sequences(q, field, bound)
    expected = sorted(f.division_ring_dim for f in endo_rings_of_simples(q, field))
    chains = []
    all_ok = True
    for s in seqs:
        chain = stratify_along_sequence(q, s)
        ok = chain.length == q.n and sorted(chain.factor_dims()) == expected
        all_ok = all_ok and ok
        chains.append(chain.report())
    warnings = []
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
    if not is_tilting_module(T):
        raise ValueError("module is not tilting")
    coresolution_ok = tilting_coresolution(T).verify()
    summand_dims = sorted(end_dim(d) for d in distinct_summands(decompose(T)))
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


def is_derived_simple(q: Quiver) -> bool:
    """Only the one-vertex quiver admits no nontrivial stratification step."""
    return q.n == 1


def kronecker_demo(p: int) -> dict:
    """The regular simples of the Kronecker quiver over F_p, all at once.

    The p + 1 modules R_lam = (1, 1; a = 1, b = lam) and R_inf = (1, 1;
    a = 0, b = 1) are pairwise Hom- and Ext-orthogonal, each with a
    one-dimensional space of self-extensions; none is exceptional. The
    report records why stratifications cannot pass through them.
    """
    field = GF(p)
    kq = kronecker_quiver()
    regs = []
    names = []
    for lam in range(p):
        regs.append(
            Rep(
                kq,
                field,
                (1, 1),
                {
                    "a": Mat(field, 1, 1, (field.one,)),
                    "b": Mat(field, 1, 1, (field.coerce(lam),)),
                },
            )
        )
        names.append(f"R_{lam}")
    regs.append(
        Rep(
            kq,
            field,
            (1, 1),
            {
                "a": Mat(field, 1, 1, (field.zero,)),
                "b": Mat(field, 1, 1, (field.one,)),
            },
        )
    )
    names.append("R_inf")
    count = len(regs)
    cross_hom = []
    cross_ext = []
    for i in range(count):
        for j in range(count):
            if i == j:
                continue
            cross_hom.append(hom_dim(regs[i], regs[j]))
            cross_ext.append(ext1_dim(regs[i], regs[j]))
    self_hom = [hom_dim(r, r) for r in regs]
    self_ext = [ext1_dim(r, r) for r in regs]
    ok = (
        all(h == 0 for h in cross_hom)
        and all(e == 0 for e in cross_ext)
        and all(h == 1 for h in self_hom)
        and all(e == 1 for e in self_ext)
    )
    return {
        "prime": p,
        "regular_count": count,
        "ordered_pairs": count * (count - 1),
        "regulars": names,
        "pairwise_hom_zero": all(h == 0 for h in cross_hom),
        "pairwise_ext_zero": all(e == 0 for e in cross_ext),
        "self_hom_dims": self_hom,
        "self_ext_dims": self_ext,
        "any_exceptional": any(e == 0 for e in self_ext),
        "pass": ok,
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

"""Exceptional modules, exceptional sequences, and tilting modules.

A module X is exceptional when it is indecomposable with trivial
endomorphism ring and no self-extensions; over the ground fields used here
(the rationals and prime fields) the two conditions collapse to
dim End(X) = 1 together with Ext^1(X, X) = 0. A sequence (X_1, ..., X_r)
is exceptional when every member is and Hom(X_j, X_i) = 0 = Ext^1(X_j, X_i)
whenever i < j; complete means r equals the number of vertices.

Enumeration closes the simples under mutation of exceptional pairs, up to a
total-dimension bound. It is deterministic and complete: by Ringel
(Exceptional modules are tree modules, 1998) every non-simple exceptional
module is reached from an exceptional pair of smaller dimension by
mutations of increasing dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .exactlin import Field, Mat
from .perpcat import free_module, universal_extension
from .quiver import Quiver, topological_sort
from .repcat import (
    Rep,
    ShortExactSeq,
    RepMap,
    cokernel_rep,
    decompose,
    direct_sum,
    distinct_summands,
    ext1_dim,
    ext1_space,
    extension_from_cocycle,
    hom_space,
    is_exceptional,
    kernel_rep,
    orthogonal,
    simple,
)


@dataclass(frozen=True)
class ExcSequence:
    """An ordered tuple of representations; verify() checks the axioms.

    The constructor does not validate, so enumeration code can build
    candidates cheaply; verify() is the single source of truth.
    """

    reps: tuple

    def __len__(self) -> int:
        return len(self.reps)

    def __iter__(self):
        return iter(self.reps)

    def __getitem__(self, i: int) -> Rep:
        return self.reps[i]

    def verify(self) -> bool:
        for x in self.reps:
            if not is_exceptional(x):
                return False
        for i in range(len(self.reps)):
            for j in range(i + 1, len(self.reps)):
                if not orthogonal(self.reps[j], self.reps[i]):
                    return False
        return True

    def is_complete(self) -> bool:
        return bool(self.reps) and len(self.reps) == self.reps[0].quiver.n


def is_exceptional_sequence(reps) -> bool:
    return ExcSequence(tuple(reps)).verify()


def order_into_exceptional_sequence(summands):
    """Arrange pairwise non-isomorphic exceptionals into a sequence, if possible.

    Puts an edge X -> Y whenever Hom(X, Y) or Ext^1(X, Y) is nonzero (X
    must then come before Y) and sorts topologically, breaking ties by
    smallest input index. Returns None when the constraint graph has a
    cycle; raises when a summand is not exceptional. A topological order
    leaves no nonzero Hom or Ext^1 from a later member to an earlier one,
    so the result is an exceptional sequence without a further check.
    """
    xs = list(summands)
    for x in xs:
        if not is_exceptional(x):
            raise ValueError(
                f"summand with dimension vector {x.dims} is not exceptional"
            )
    m = len(xs)
    edges = [
        (a, b)
        for a in range(m)
        for b in range(m)
        if a != b and not orthogonal(xs[a], xs[b])
    ]
    order = topological_sort(m, edges)
    if len(order) != m:
        return None
    return ExcSequence(tuple(xs[i] for i in order))


def is_tilting_module(T: Rep) -> bool:
    """Rigid with exactly n pairwise non-isomorphic indecomposable summands."""
    if T.total_dim == 0:
        return T.quiver.n == 0
    if ext1_dim(T, T) != 0:
        return False
    return len(distinct_summands(decompose(T))) == T.quiver.n


def tilting_coresolution(T: Rep) -> ShortExactSeq:
    """The coresolution 0 -> A -> T_0 -> T_1 -> 0 certifying T tilting.

    A = (+)_v P_v maps into add T through the universal map u: A -> T_0,
    where T_0 collects one copy of a distinct summand per Hom-basis element
    from A. The kernel of u must vanish and its cokernel must decompose
    into add T again; either failure raises. A cokernel summand lies in
    add T exactly when it is exceptional with the dimension vector of a
    summand of T.
    """
    q = T.quiver
    f = T.field
    if not is_tilting_module(T):
        raise ValueError("coresolution is only defined for tilting modules")
    distinct = distinct_summands(decompose(T))
    A = free_module(q, f)
    maps = [(d, h) for d in distinct for h in hom_space(A, d)]
    if not maps:
        raise ValueError("no maps from the free module into add T")
    T0 = direct_sum([d for d, _ in maps])
    blocks = [reduce(Mat.vstack, [h.block(v) for _, h in maps]) for v in q.vertices()]
    u = RepMap(A, T0, blocks)
    K, _ = kernel_rep(u)
    if K.total_dim != 0:
        raise ValueError("universal map into add T is not injective")
    C, proj = cokernel_rep(u)
    if C.total_dim != 0:
        summand_dims = {d.dims for d in distinct}
        for p in decompose(C):
            if p.dims not in summand_dims or not is_exceptional(p):
                raise ValueError(
                    f"cokernel summand with dimension vector {p.dims} "
                    f"is outside add T"
                )
    return ShortExactSeq(A, T0, C, u, proj)


@dataclass(frozen=True)
class EnumerationResult:
    """The exceptional modules up to a bound, sorted by (total_dim, dims)."""

    reps: tuple
    # The mutation closure is complete up to its bound, so no root is ever
    # left unsettled; the constant stays because bench/spans.py reads it.
    unresolved_roots = ()

    def __len__(self) -> int:
        return len(self.reps)

    def __iter__(self):
        return iter(self.reps)


def _signed(v):
    """v when v >= 0, -v when v <= 0, None when its signs are mixed."""
    if all(x >= 0 for x in v):
        return tuple(v)
    if all(x <= 0 for x in v):
        return tuple(-x for x in v)
    return None


def _mutation_dims(q: Quiver, dE, dF):
    """Dimension vectors of (L_E F, R_F E) for an exceptional pair (E, F).

    With h = <dE, dF> they are |dF - h dE| and |h dF - dE|; an entry is
    None when that vector has mixed signs, which rules the pair out.
    """
    h = q.euler_form(dE, dF)
    left = _signed([f - h * e for e, f in zip(dE, dF)])
    right = _signed([h * f - e for e, f in zip(dE, dF)])
    return left, right


def _kernel_or_cokernel(phi: RepMap) -> Rep:
    """The kernel of phi, or its cokernel when phi is injective."""
    K, _ = kernel_rep(phi)
    return K if K.total_dim else cokernel_rep(phi)[0]


def left_mutation(E: Rep, F: Rep) -> Rep:
    """L_E F for an exceptional pair (E, F); (L_E F, E) is again one.

    At most one of Hom(E, F), Ext^1(E, F) is nonzero, and the Euler form
    says which. With Hom(E, F) != 0 the canonical map E (x) Hom(E, F) -> F
    is mono or epi (Happel-Ringel) and L_E F is its cokernel or kernel;
    with Ext^1(E, F) != 0 it is the universal extension
    0 -> F -> L -> E^c -> 0; otherwise it is F.
    """
    q = E.quiver
    h = q.euler_form(E.dims, F.dims)
    if h > 0:
        maps = hom_space(E, F)
        blocks = [reduce(Mat.hstack, [m.block(v) for m in maps]) for v in q.vertices()]
        return _kernel_or_cokernel(RepMap(direct_sum([E] * len(maps)), F, blocks))
    if h < 0:
        return universal_extension(E, F)[1].middle
    return F


def right_mutation(E: Rep, F: Rep) -> Rep:
    """R_F E for an exceptional pair (E, F); (F, R_F E) is again one.

    Dual to `left_mutation`: the cokernel or kernel of the canonical map
    E -> F (x) Hom(E, F)*, the universal extension 0 -> F^c -> R -> E -> 0,
    or E itself.
    """
    q = E.quiver
    h = q.euler_form(E.dims, F.dims)
    if h > 0:
        maps = hom_space(E, F)
        blocks = [reduce(Mat.vstack, [m.block(v) for m in maps]) for v in q.vertices()]
        return _kernel_or_cokernel(RepMap(E, direct_sum([F] * len(maps)), blocks))
    if h < 0:
        cocycles = ext1_space(E, F)
        stacked = {
            a.name: reduce(Mat.vstack, [z[a.name] for z in cocycles]) for a in q.arrows
        }
        Fc = direct_sum([F] * len(cocycles))
        return extension_from_cocycle(E, Fc, stacked).middle
    return E


def enumerate_exceptional(
    quiver: Quiver, field: Field, bound: int
) -> EnumerationResult:
    """Every exceptional module of total dimension at most the bound.

    A semi-naive closure of the simples under both mutations: each round
    takes every ordered pair of members in which at least one member is new
    from the round before. `_mutation_dims` predicts the result from the
    Euler form, so a pair is tested and a module built only for a new
    vector within the bound, and the module is kept when it is exceptional
    with that vector (exceptional modules are determined by their dimension
    vector). The closure is complete: by Ringel (Exceptional modules are
    tree modules, 1998) a non-simple exceptional module lies in the
    rank-two category of an exceptional pair of smaller dimension and is
    reached from that pair by mutations of increasing dimension.
    """
    members = [simple(quiver, field, v) for v in quiver.vertices()] if bound > 0 else []
    seen = {X.dims for X in members}
    start = 0
    while start < len(members):
        end = len(members)
        for i in range(end):
            for j in range(start if i < start else 0, end):
                if i == j:
                    continue
                E, F = members[i], members[j]
                todo = [
                    (mutate, d)
                    for mutate, d in zip(
                        (left_mutation, right_mutation),
                        _mutation_dims(quiver, E.dims, F.dims),
                    )
                    if d is not None and sum(d) <= bound and d not in seen
                ]
                if not todo or not orthogonal(F, E):
                    continue
                for mutate, d in todo:
                    if d in seen:
                        continue
                    X = mutate(E, F)
                    if X.dims == d and is_exceptional(X):
                        members.append(X)
                        seen.add(d)
        start = end
    members.sort(key=lambda r: (r.total_dim, r.dims))
    return EnumerationResult(tuple(members))


def enumerate_complete_exceptional_sequences(quiver: Quiver, field: Field, bound: int):
    """All complete exceptional sequences with members from the enumeration.

    Depth-first over the listed exceptionals with a precomputed pair table;
    output is lexicographic in enumeration indices, so the order is fixed.
    """
    reps = list(enumerate_exceptional(quiver, field, bound).reps)
    m = len(reps)
    n = quiver.n
    ok = [[orthogonal(reps[j], reps[i]) for j in range(m)] for i in range(m)]
    sequences = []

    def extend(prefix):
        if len(prefix) == n:
            sequences.append(ExcSequence(tuple(reps[i] for i in prefix)))
            return
        for j in range(m):
            if j in prefix:
                continue
            if all(ok[i][j] for i in prefix):
                extend(prefix + [j])

    extend([])
    return sequences

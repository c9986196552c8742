"""Exceptional modules, exceptional sequences, and tilting modules.

A module X is exceptional when it is indecomposable with trivial
endomorphism ring and no self-extensions; over the ground fields used here
(the rationals and prime fields) the two conditions collapse to
dim End(X) = 1 together with Ext^1(X, X) = 0. A sequence (X_1, ..., X_r)
is exceptional when every member is and Hom(X_j, X_i) = 0 = Ext^1(X_j, X_i)
whenever i < j; complete means r equals the number of vertices.

Enumeration works dimension vector by dimension vector: candidate vectors
are the connected roots of the Euler form up to a total-dimension bound,
and for each root a seeded search looks for the (unique up to isomorphism)
exceptional module. Roots where the search stays empty-handed within its
budget are reported rather than silently dropped.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .exactlin import Field, Mat
from .quiver import Quiver
from .repcat import (
    Rep,
    ShortExactSeq,
    RepMap,
    cokernel_rep,
    decompose,
    direct_sum,
    distinct_summands,
    end_dim,
    ext1_dim,
    hom_dim,
    hom_space,
    kernel_rep,
    projective,
)


def is_exceptional(X: Rep) -> bool:
    """True when X is indecomposable, rigid, and has trivial endomorphisms.

    dim End(X) = 1 already forces indecomposability, and conversely an
    indecomposable rigid module over these ground fields has endomorphism
    ring equal to the ground field, so the test never needs a decomposition.
    """
    return end_dim(X) == 1 and ext1_dim(X, X) == 0


def _pair_ok(earlier: Rep, later: Rep) -> bool:
    """Sequence condition for the ordered pair (earlier, later)."""
    return hom_dim(later, earlier) == 0 and ext1_dim(later, earlier) == 0


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
                if not _pair_ok(self.reps[i], self.reps[j]):
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
    succ = [set() for _ in range(m)]
    indeg = [0] * m
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            if hom_dim(xs[a], xs[b]) != 0 or ext1_dim(xs[a], xs[b]) != 0:
                succ[a].add(b)
                indeg[b] += 1
    order = []
    ready = [i for i in range(m) if indeg[i] == 0]
    while ready:
        i = min(ready)
        ready.remove(i)
        order.append(i)
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
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
    A = direct_sum([projective(q, f, v) for v in q.vertices()])
    targets = []
    blocks_per_vertex = [[] for _ in q.vertices()]
    for d in distinct:
        for h in hom_space(A, d):
            targets.append(d)
            for vi in range(q.n):
                blocks_per_vertex[vi].append(h.blocks[vi])
    if not targets:
        raise ValueError("no maps from the free module into add T")
    T0 = direct_sum(targets)
    blocks = []
    for vi in range(q.n):
        stacked = blocks_per_vertex[vi][0]
        for b in blocks_per_vertex[vi][1:]:
            stacked = stacked.vstack(b)
        blocks.append(stacked)
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
    """Exceptional modules found, plus roots the search could not settle."""

    reps: tuple
    unresolved_roots: tuple

    def __len__(self) -> int:
        return len(self.reps)

    def __iter__(self):
        return iter(self.reps)


def _connected_support(q: Quiver, d) -> bool:
    supp = [v for v in q.vertices() if d[v - 1] > 0]
    if not supp:
        return False
    seen = {supp[0]}
    frontier = [supp[0]]
    adj = {v: set() for v in supp}
    for a in q.arrows:
        if a.source in adj and a.target in adj:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(supp)


def _real_roots(q: Quiver, bound: int):
    """Dimension vectors d with sum(d) <= bound, <d, d> = 1, connected support."""
    n = q.n
    out = []
    for total in range(1, bound + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            d = []
            prev = -1
            for c in cuts:
                d.append(c - prev - 1)
                prev = c
            d.append(total + n - 2 - prev)
            if sum(d) != total:
                continue
            if q.euler_form(d, d) != 1:
                continue
            if not _connected_support(q, d):
                continue
            out.append(tuple(d))
    return out


def _random_rep_with_dims(q: Quiver, field: Field, dims, rng) -> Rep:
    maps = {}
    for a in q.arrows:
        rows, cols = dims[a.target - 1], dims[a.source - 1]
        if field.is_rational:
            ent = [field.coerce(rng.randint(-3, 3)) for _ in range(rows * cols)]
        else:
            p = field.characteristic
            ent = [field.coerce(rng.randrange(p)) for _ in range(rows * cols)]
        maps[a.name] = Mat(field, rows, cols, ent)
    return Rep(q, field, dims, maps)


_EXHAUSTIVE_REP_LIMIT = 2**20


def _all_reps_with_dims(q: Quiver, field: Field, dims):
    """Every representation with the given dimension vector, or None.

    Only available over a prime field small enough that the full scan stays
    under the exhaustive-search limit.
    """
    shapes = [(dims[a.target - 1], dims[a.source - 1]) for a in q.arrows]
    cells = sum(r * c for r, c in shapes)
    p = field.characteristic
    if p == 0 or p**cells > _EXHAUSTIVE_REP_LIMIT:
        return None
    vals = [field.coerce(v) for v in range(p)]

    def sweep():
        for combo in itertools.product(vals, repeat=cells):
            maps = []
            k = 0
            for rows, cols in shapes:
                maps.append(Mat(field, rows, cols, combo[k : k + rows * cols]))
                k += rows * cols
            yield Rep(q, field, dims, maps)

    return sweep()


def enumerate_exceptional(
    quiver: Quiver, field: Field, bound: int, seed: int = 0, budget: int = 256
) -> EnumerationResult:
    """Search for exceptional modules of every real root up to the bound.

    For each candidate dimension vector a per-root generator seeded from
    (seed, vector) samples random representations; the first exceptional
    hit is kept (any two exceptionals sharing a dimension vector are
    isomorphic). Over F_2 and F_3 a root small enough to scan exhaustively
    is settled either way; otherwise a fruitless budget leaves the root in
    unresolved_roots.
    """
    found = []
    unresolved = []
    for d in _real_roots(quiver, bound):
        rng = random.Random(f"{seed}|{d}")
        hit = None
        for _ in range(budget):
            cand = _random_rep_with_dims(quiver, field, d, rng)
            if is_exceptional(cand):
                hit = cand
                break
        if hit is None:
            sweep = _all_reps_with_dims(quiver, field, d)
            if sweep is not None:
                for cand in sweep:
                    if is_exceptional(cand):
                        hit = cand
                        break
                if hit is None:
                    continue
            else:
                unresolved.append(d)
                continue
        found.append(hit)
    found.sort(key=lambda r: (r.total_dim, r.dims))
    return EnumerationResult(tuple(found), tuple(unresolved))


def enumerate_complete_exceptional_sequences(
    quiver: Quiver, field: Field, bound: int, seed: int = 0
):
    """All complete exceptional sequences with members from the enumeration.

    Depth-first over the listed exceptionals with a precomputed pair table;
    output is lexicographic in enumeration indices, so a fixed seed gives a
    fixed order. Returns (sequences, unresolved_roots).
    """
    result = enumerate_exceptional(quiver, field, bound, seed=seed)
    reps = list(result.reps)
    m = len(reps)
    n = quiver.n
    ok = [[_pair_ok(reps[i], reps[j]) for j in range(m)] for i in range(m)]
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
    return sequences, result.unresolved_roots

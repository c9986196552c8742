"""Exceptional modules, exceptional sequences, and tilting modules.

A module X is exceptional when it is indecomposable with trivial
endomorphism ring and no self-extensions; over the ground fields used here
(the rationals and prime fields) the two conditions collapse to
dim End(X) = 1 together with Ext^1(X, X) = 0. A sequence (X_1, ..., X_r)
is exceptional when every member is and Hom(X_j, X_i) = 0 = Ext^1(X_j, X_i)
whenever i < j; complete means r equals the number of vertices. A
sequence is a plain tuple of Reps, checked by `is_exceptional_sequence`.

Enumeration closes the simples under mutation of exceptional pairs, up to a
total-dimension bound. It is deterministic and complete: by Ringel
(Exceptional modules are tree modules, 1998) every non-simple exceptional
module is reached from an exceptional pair of smaller dimension by
mutations of increasing dimension. `_closure` keeps one closure per
(quiver, field) for the life of the process, at the largest bound asked
for, and answers smaller bounds by filtering it; the sequence enumeration,
the isotypic Bongartz parts of `perpcat` and the tilting test read it.

Whether T is tilting is decided without decomposing T (`_tilting_dims`):
T must be rigid, and the closure members that fit under dim T and are
Ext-orthogonal to T must be n modules with independent dimension vectors
in which dim T has positive coordinates. Only the `tilting-check` and
`ringel-check` verbs decompose a tilting T, once, for its summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .exactlin import QQ, Field, Mat
from .quiver import Quiver
from .repcat import (
    Rep,
    RepMap,
    _assembled,
    _check_summand_dims,
    _cokernel,
    _hom_system_rank,
    _in_add,
    _kernel,
    decompose,
    direct_sum,
    distinct_summands,
    ext1_space,
    extension_from_cocycle,
    free_module,
    hom_space,
    is_exceptional,
    orthogonal,
    simple,
    universal_extension,
)


def is_exceptional_sequence(reps) -> bool:
    """True when every member is exceptional and each later member is
    orthogonal to each earlier one (Hom and Ext^1 from it vanish)."""
    reps = tuple(reps)
    return all(is_exceptional(x) for x in reps) and all(
        orthogonal(reps[j], reps[i])
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
    )


def _tilting_dims(T: Rep):
    """The dimension vectors of T's distinct indecomposable summands when T
    is tilting, else None; T is not decomposed.

    Over a hereditary algebra T is tilting exactly when
    (a) Ext^1(T, T) = 0;
    (b) the set C of exceptional X with dim X <= dim T componentwise and
        Ext^1(X, T) = 0 = Ext^1(T, X) has exactly n members;
    (c) their dimension vectors are linearly independent; and
    (d) dim T has positive coordinates in them.
    C is read off the mutation closure `_closure(q, k, |dim T|)`, which holds
    every exceptional module of total dimension at most |dim T| (Ringel,
    1998). If T is tilting it is maximal rigid (Bongartz), so C lies in
    add T and holds exactly T's n summands, whose dimension vectors are
    independent (Happel-Ringel, Tilted algebras, 1982). Conversely every
    summand of a rigid T is exceptional and lies in C, so dim T is a
    non-negative integer combination of C; by (c) it is the only
    combination, so (d) puts every member of C in add T, and T has n
    summands. A summand X of T has <dim X, dim T> = dim Hom(X, T) >= 1,
    and likewise <dim T, dim X> >= 1, so members failing either are
    dropped from C before any elimination.
    T is a one-off input, so its Hom systems stay out of the rank memo.
    """
    q = T.quiver
    n = q.n
    if T.total_dim == 0:
        return () if n == 0 else None
    rows, _, rank = _hom_system_rank(T, T)
    if rows != rank:
        return None
    t = T.dims
    C = []
    for X in _closure(q, T.field, T.total_dim):
        x = X.dims
        if (
            any(a > b for a, b in zip(x, t))
            or q.euler_form(x, t) < 1
            or q.euler_form(t, x) < 1
        ):
            continue
        if any(r != k for r, _, k in (_hom_system_rank(X, T), _hom_system_rank(T, X))):
            continue
        C.append(x)
        if len(C) > n:
            return None
    if len(C) != n:
        return None
    # solve sets free variables to 0, so positive coordinates show (c) too
    m = Mat(QQ, n, n, [x[v] for v in range(n) for x in C]).solve(Mat.column(QQ, t))
    return tuple(C) if m is not None and all(c > 0 for c in m.entries) else None


def is_tilting_module(T: Rep) -> bool:
    """Rigid with exactly n pairwise non-isomorphic indecomposable summands.

    Decided by `_tilting_dims` without decomposing T: T is rigid, and the
    members of the mutation closure that fit under dim T and are
    Ext-orthogonal to T are n modules with linearly independent dimension
    vectors, in which dim T has positive coordinates. It rests on Bongartz
    (a tilting module is maximal rigid), Happel-Ringel (the summands of a
    rigid module have independent dimension vectors) and Ringel (the
    closure holds every exceptional module up to its bound). Only
    `_tilting_summands`, behind the `tilting-check` and `ringel-check`
    verbs and `strat.verify_ringel_tilting`, decomposes a tilting T, once.
    """
    return _tilting_dims(T) is not None


def _tilting_summands(T: Rep):
    """The distinct indecomposable summands of T when T is tilting, else None.

    The verdict is `_tilting_dims`'s, so a T that is not tilting is never
    decomposed. A tilting T is decomposed once, for the summands that the
    coresolution certificate and the endomorphism rings read. They must
    pass `repcat._check_summand_dims`, as the Bongartz summands of `perpcat`
    do, and their distinct dimension vectors must be the n that
    `_tilting_dims` found; AssertionError names the condition that fails.
    """
    dims = _tilting_dims(T)
    if dims is None:
        return None
    parts = decompose(T)
    _check_summand_dims(T.quiver, parts, T.dims, "tilting", "T's")
    distinct = distinct_summands(parts)
    found = sorted(d.dims for d in distinct)
    if found != sorted(dims):
        raise AssertionError(
            f"tilting summands have dimensions {found}, "
            f"not the closure's {sorted(dims)}"
        )
    return distinct


def _coresolution(T: Rep, distinct):
    """(T_0, T_1) when the tilting certificate of T holds, else None.

    A = (+)_v P_v maps into add T through the universal map u: A -> T_0,
    where T_0 collects one copy of a distinct summand of T per Hom-basis
    element from A. The certificate holds when u is injective at every
    vertex and T_1 = coker u lies in add T, which needs no decomposition:
    `repcat._in_add` requires T_1 rigid with dimension vector
    sum_d m_d dim d for integers m_d >= 0. The summands d of the rigid T
    are pairwise Ext-orthogonal, so (+)_d d^{m_d} is rigid with the
    dimension vector of T_1, and a rigid module is determined by its
    dimension vector (Kac, 1980; Happel-Ringel, 1982). Exactness needs no
    further check: T_1 is built as the cokernel of u.
    """
    q = T.quiver
    A = free_module(q, T.field)
    maps = [(d, h) for d in distinct for h in hom_space(A, d)]
    if not maps:
        return None
    blocks = _assembled([h for _, h in maps], Mat.vstack)
    if any(b.rank() != b.cols for b in blocks):
        return None
    T0 = direct_sum([d for d, _ in maps])
    T1 = _cokernel(RepMap(A, T0, blocks))[0]
    return (T0, T1) if _in_add(T1, distinct) is not None else None


@dataclass(frozen=True)
class EnumerationResult:
    """The exceptional modules up to a bound, sorted by (total_dim, dims)."""

    reps: tuple
    # The mutation closure is complete up to its bound, so no root is ever
    # left unsettled; the constant stays because bench/spans.py reads it.
    unresolved_roots = ()


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
    K = _kernel(phi)[0]
    return K if K.total_dim else _cokernel(phi)[0]


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
        blocks = _assembled(maps, Mat.hstack)
        return _kernel_or_cokernel(RepMap(direct_sum([E] * len(maps)), F, blocks))
    if h < 0:
        return universal_extension(E, F)[1]
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
        blocks = _assembled(maps, Mat.vstack)
        return _kernel_or_cokernel(RepMap(E, direct_sum([F] * len(maps)), blocks))
    if h < 0:
        cocycles = ext1_space(E, F)
        stacked = {
            a.name: reduce(Mat.vstack, [z[a.name] for z in cocycles]) for a in q.arrows
        }
        Fc = direct_sum([F] * len(cocycles))
        return extension_from_cocycle(E, Fc, stacked)
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


# (quiver, field) -> (bound, members) for the largest bound asked so far;
# kept for the life of the process, like the memos of `repcat` and `perpcat`
_CLOSURES = {}


def _closure(quiver: Quiver, field: Field, bound: int) -> tuple:
    """`enumerate_exceptional(quiver, field, bound).reps`, served from one
    memo per (quiver, field).

    The memo keeps the closure at the largest bound computed. A smaller
    bound is answered by filtering it by total dimension, which gives the
    same dimension vectors as a fresh closure because the closure is
    complete up to its bound (the modules may be other representatives of
    the same isomorphism classes). A larger bound builds the closure again.
    """
    held = _CLOSURES.get((quiver, field))
    if held is None or held[0] < bound:
        held = bound, enumerate_exceptional(quiver, field, bound).reps
        _CLOSURES[quiver, field] = held
    top, reps = held
    return reps if top == bound else tuple(r for r in reps if r.total_dim <= bound)


def enumerate_complete_exceptional_sequences(quiver: Quiver, field: Field, bound: int):
    """All complete exceptional sequences with members from the enumeration.

    Depth-first over the listed exceptionals with a precomputed pair table;
    output is lexicographic in enumeration indices, so the order is fixed.
    The members come from `_closure`, the memo that `perpcat` also reads.
    The table is one bitmask per member: bit j of after[i] is set when
    reps[j] may follow reps[i], that is when it is orthogonal to it. The
    members that may extend a prefix are the AND of its members' masks,
    tried in increasing index order.
    """
    reps = _closure(quiver, field, bound)
    m = len(reps)
    n = quiver.n
    after = [
        sum(1 << j for j in range(m) if j != i and orthogonal(reps[j], reps[i]))
        for i in range(m)
    ]
    sequences = []

    def extend(prefix, allowed):
        if len(prefix) == n:
            sequences.append(tuple(reps[i] for i in prefix))
            return
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            extend(prefix + (j,), allowed & after[j])

    extend((), (1 << m) - 1)
    return sequences

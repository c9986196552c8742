"""Workload inputs, the calls a pass times, and the oracles that check them.

Every input is generated here from the workload seed; nothing is read from
the package's tests. The oracles do not use the code under test: sequence
counts come from the Dynkin formula n! h^n / |W|, Hom dimensions between
interval modules of A_3 and the Euler form are computed combinatorially.

A workload is a list of `Op`s. `call` is what a pass times; `check` runs
after the clock stops and returns None or a description of the failure.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import factorial
from typing import Callable, Optional

import strata
import strata.cli

WORKLOADS = ("jh-dynkin", "jh-kronecker", "queries-oneoff")
QUERIES_FULL = 4000
QUERIES_TINY = 60


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


# --- jh-verify through the command line ---

def dynkin_sequence_count(kind: str, n: int) -> int:
    """Complete exceptional sequences of a Dynkin quiver: n! h^n / |W|
    (Obaid, Nauman, Shammakh, Fakieh, Ringel 2013)."""
    if kind == "A":
        h, order = n + 1, factorial(n + 1)
    elif kind == "D":
        h, order = 2 * n - 2, 2 ** (n - 1) * factorial(n)
    else:
        raise ValueError(f"no Coxeter data for type {kind}")
    return factorial(n) * h ** n // order


def kronecker_sequence_count(bound: int) -> int:
    """The exceptional Kronecker modules have dimension vectors (k, k+1) and
    (k+1, k); complete sequences are neighbours in the chain
    ... (1,2) (0,1) (1,0) (2,1) ..., so r roots within the bound give r - 1."""
    roots = [d for d in itertools.product(range(bound + 1), repeat=2)
             if abs(d[0] - d[1]) == 1 and sum(d) <= bound]
    return len(roots) - 1


def quiver_text(n: int, arrows, field: str = "Q") -> str:
    lines = [f"field {field}", f"vertices {n}"]
    lines += [f"arrow {name} {s} {t}" for name, s, t in arrows]
    return "\n".join(lines) + "\n"


A4 = (4, [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)])
D4 = (4, [("a", 1, 4), ("b", 2, 4), ("c", 3, 4)])
A3 = (3, [("a", 1, 2), ("b", 2, 3)])
KRONECKER = (2, [("a", 1, 2), ("b", 1, 2)])


def jh_specs(workload: str, tiny: bool):
    """(label, quiver, extra flags, expected sequence count) per call."""
    if workload == "jh-dynkin":
        if tiny:
            return [("A_3/Q", A3, ["--bound", "3"], dynkin_sequence_count("A", 3)),
                    ("A_3/F3", A3, ["--prime", "3", "--bound", "3"],
                     dynkin_sequence_count("A", 3))]
        return [("A_4/Q", A4, ["--bound", "4"], dynkin_sequence_count("A", 4)),
                ("D_4/F3", D4, ["--prime", "3", "--bound", "5"],
                 dynkin_sequence_count("D", 4))]
    bound = 3 if tiny else 5
    return [(f"Kronecker/Q/bound{bound}", KRONECKER, ["--bound", str(bound)],
             kronecker_sequence_count(bound))]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = strata.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_jh(expected_count: int, n: int):
    def check(result) -> Optional[str]:
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        report = json.loads(out)
        if report["warnings"]:
            return f"warnings: {report['warnings']}"
        if not report["pass"]:
            return "report says FAIL"
        if report["sequence_count"] != expected_count or len(report["chains"]) != expected_count:
            return (f"{report['sequence_count']} sequences, "
                    f"{len(report['chains'])} chains, want {expected_count}")
        # End(S_v) is the ground field at every vertex
        for i, chain in enumerate(report["chains"]):
            if sorted(chain["factors"]) != [1] * n:
                return f"chain {i} has factors {chain['factors']}"
        return None
    return check


def jh_ops(workload: str, seed: int, tiny: bool, workdir, break_oracle: bool):
    ops = []
    for label, (n, arrows), flags, expected in jh_specs(workload, tiny):
        path = workdir / (label.replace("/", "_") + ".quiver")
        path.write_text(quiver_text(n, arrows), encoding="utf-8")
        argv = ["jh-verify", str(path), "--seed", str(seed), "--json", *flags]
        want = expected + (1 if break_oracle else 0)
        ops.append(Op(label, lambda argv=argv: _run_cli(argv), _check_jh(want, n)))
    return ops


# --- independent single library calls ---

def euler(arrows, d, e) -> int:
    return sum(x * y for x, y in zip(d, e)) - sum(d[s - 1] * e[t - 1] for s, t in arrows)


def _scalar(field, rng, nonzero=False):
    if field.is_rational:
        pool = (-3, -2, -1, 1, 2, 3) if nonzero else range(-3, 4)
    else:
        pool = range(1 if nonzero else 0, field.characteristic)
    return rng.choice(pool)


def random_quiver(rng, n: int, density: float, multi: bool, connected: bool = False):
    """A random acyclic quiver on n vertices: arrows only go from lower to
    higher position in a random vertex order. `connected` first joins every
    position to a random earlier one."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    tree = {j: rng.randrange(j) for j in range(1, n)} if connected else {}
    arrows = []
    for i, j in itertools.combinations(range(n), 2):
        count = 1 if tree.get(j) == i else 0
        if not count and rng.random() < density:
            count = 2 if multi and rng.random() < 0.15 else 1
        for _ in range(count):
            arrows.append(strata.Arrow(f"x{len(arrows)}", order[i], order[j]))
    return strata.Quiver(n, arrows)


def random_rep(q, field, rng):
    dims = [rng.randint(0, 3) for _ in range(q.n)]
    maps = [strata.Mat(field, dims[a.target - 1], dims[a.source - 1],
                       [_scalar(field, rng) for _ in range(dims[a.target - 1] * dims[a.source - 1])])
            for a in q.arrows]
    return strata.Rep(q, field, dims, maps)


def _invertible_pair(field, n: int, rng):
    """A random invertible n x n matrix and its inverse, as a product of a
    diagonal and elementary transvections, so the inverse is known exactly."""
    one, zero = field.one, field.zero
    diag = [field.coerce(_scalar(field, rng, nonzero=True)) for _ in range(n)]
    g = strata.Mat(field, n, n, [diag[i] if i == j else zero for i in range(n) for j in range(n)])
    g_inv = strata.Mat(field, n, n, [field.inv(diag[i]) if i == j else zero
                                     for i in range(n) for j in range(n)])
    if n < 2:
        return g, g_inv
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = field.coerce(_scalar(field, rng, nonzero=True))
        e = [one if r == s else zero for r in range(n) for s in range(n)]
        e_inv = list(e)
        e[i * n + j] = c
        e_inv[i * n + j] = field.neg(c)
        g = g.mul(strata.Mat(field, n, n, e))
        g_inv = strata.Mat(field, n, n, e_inv).mul(g_inv)
    return g, g_inv


def base_change(M, rng):
    """An isomorphic copy of M: M_a becomes g_t M_a g_s^{-1} at every arrow."""
    f = M.field
    pairs = [_invertible_pair(f, d, rng) for d in M.dims]
    maps = [pairs[a.target - 1][0].mul(m).mul(pairs[a.source - 1][1])
            for a, m in zip(M.quiver.arrows, M.maps)]
    return strata.Rep(M.quiver, f, M.dims, maps)


def interval_module(q, field, a: int, b: int):
    """The thin module with k at vertices a..b of the linear quiver 1 -> ... -> n."""
    dims = [1 if a <= v <= b else 0 for v in q.vertices()]
    maps = [strata.Mat(field, dims[x.target - 1], dims[x.source - 1],
                       [field.one] * (dims[x.target - 1] * dims[x.source - 1]))
            for x in q.arrows]
    return strata.Rep(q, field, dims, maps)


def interval_hom(x, y) -> int:
    """dim Hom(M[a,b], M[c,d]) over 1 -> 2 -> ... -> n: the image is a quotient
    M[a,e] of the source and a submodule M[c',d] of the target, so a map
    exists exactly when c <= a <= d <= b."""
    (a, b), (c, d) = x, y
    return 1 if c <= a <= d <= b else 0


def tilting_triples_a3():
    """Triples of pairwise Ext-orthogonal indecomposables of A_3, with the
    verdict computed from interval Homs and the Euler form alone."""
    arrows = [(1, 2), (2, 3)]
    intervals = [(a, b) for a in range(1, 4) for b in range(a, 4)]

    def dims(x):
        return [1 if x[0] <= v <= x[1] else 0 for v in range(1, 4)]

    def ext(x, y):
        return interval_hom(x, y) - euler(arrows, dims(x), dims(y))

    table = []
    for triple in itertools.combinations(intervals, 3):
        tilting = all(ext(x, y) == 0 for x in triple for y in triple)
        table.append((triple, tilting))
    if sum(t for _, t in table) != 5:  # Catalan C_3 tilting modules of A_3
        raise AssertionError("interval oracle does not find the 5 tilting modules of A_3")
    return table


class _Pair:
    """Hom and Ext of one pair are separate queries; the Euler form checks both."""

    def __init__(self, M, N, offset):
        self.M, self.N, self.hom = M, N, None
        self.want = euler([(a.source, a.target) for a in M.quiver.arrows], M.dims, N.dims) + offset

    def check_hom(self, result):
        self.hom = result
        return None

    def check_ext(self, result):
        if self.hom is None:
            return "Hom query of this pair failed"
        if self.hom - result != self.want:
            return f"hom {self.hom} - ext {result} != Euler form {self.want}"
        return None


# Each maker returns (key, ops) for the k-th query of its kind. Every kind
# walks through its shapes (vertex counts, summand counts, tilting triples)
# in a fixed rotation, so the mix of shapes, and with it the time a stream
# takes and its median call, does not depend on the seed; the seed picks
# the arrows, dimensions, entries and base changes.

def _pair_query(rng, field, k, break_oracle):
    q = random_quiver(rng, 2 + k % 4, 0.5, multi=True)
    M, N = random_rep(q, field, rng), random_rep(q, field, rng)
    pair = _Pair(M, N, 1 if break_oracle else 0)
    return ("pair", M, N), [
        Op(f"hom_dim/{field!r}", lambda: strata.hom_dim(M, N), pair.check_hom),
        Op(f"ext1_dim/{field!r}", lambda: strata.ext1_dim(M, N), pair.check_ext),
    ]


def _decompose_query(rng, field, k, break_oracle):
    # k % 6 covers every (vertex count, field) pair; the summand count
    # switches every 6. Summands are pairwise non-isomorphic (distinct
    # dimension vectors): with a repeated summand over QQ, decompose can
    # run out of its search budget (UndecidedError), which would make runs
    # fail at random.
    q = random_quiver(rng, 2 + k % 3, 0.3, multi=False, connected=True)
    candidates = {}
    for v in q.vertices():
        for make in (strata.projective, strata.simple):
            m = make(q, field, v)
            candidates.setdefault(m.dims, m)
    parts = rng.sample(sorted(candidates.values(), key=lambda m: m.dims), 2 + (k // 6) % 2)
    M = base_change(strata.direct_sum(parts), rng)
    want = sorted(p.dims for p in parts)[break_oracle:]

    def check(result):
        got = sorted(p.dims for p in result)
        return None if got == want else f"summands {got}, built {want}"

    return ("decompose", M), [Op(f"decompose/{field!r}", lambda: strata.decompose(M), check)]


def _tilting_query(rng, field, k, break_oracle, triples=tilting_triples_a3()):
    # consecutive k alternate fields, so every triple meets both
    triple, tilting = triples[(k // 2) % len(triples)]
    a3 = strata.linear_quiver(3)
    T = base_change(strata.direct_sum([interval_module(a3, field, a, b) for a, b in triple]), rng)
    want = tilting != break_oracle

    def check(result):
        return None if result is want else f"tilting verdict {result} on {triple}"

    return ("tilting", T), [Op(f"is_tilting_module/{field!r}",
                               lambda: strata.is_tilting_module(T), check)]


def query_ops(seed: int, tiny: bool, break_oracle: bool):
    rng = random.Random(f"queries-oneoff|{seed}")
    fields = (strata.QQ, strata.GF(5))
    # odd cycle length, so every kind alternates between the two fields
    cycle = (_pair_query,) * 5 + (_decompose_query, _tilting_query)
    total = QUERIES_TINY if tiny else QUERIES_FULL
    seen = set()
    made = Counter()
    ops = []
    item = 0
    while len(ops) < total:
        make, field = cycle[item % len(cycle)], fields[item % 2]
        item += 1
        # no input repeats; a shape whose inputs are used up (a sum of
        # simples has no maps to base-change) gives way to the next one
        for attempt in range(1000):
            key, new = make(rng, field, made[make] + 2 * attempt, break_oracle)
            if key not in seen:
                break
        else:
            raise RuntimeError(f"{make.__name__} found no new input in 1000 draws")
        made[make] += 1
        seen.add(key)
        ops += new
    return ops


def build(workload: str, seed: int, tiny: bool, workdir, break_oracle: bool = False):
    if workload == "queries-oneoff":
        return query_ops(seed, tiny, break_oracle)
    if workload in ("jh-dynkin", "jh-kronecker"):
        return jh_ops(workload, seed, tiny, workdir, break_oracle)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

"""Spans around the package's layer boundaries, recorded from outside.

`Tracer.install()` wraps the public functions of each layer and rebinds
every module attribute that refers to them, so calls made inside the
package (`strat.perp_algebra`, `perpcat.decompose`, `cli.verify_jordan_holder`
and so on) are seen as well as calls made by the benchmark. The
elimination methods of `Mat` are patched on the class; only the outermost
elimination call of a nest gets a span.

A span is (parent, request, name, start, end). Spans stay in memory and
are written out once, after the pass. Self time is a span's duration
minus the durations of its direct children; time spent in functions that
are not wrapped counts towards the nearest wrapped caller.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

from strata import cli, exceptional, exactlin, perpcat, repcat, strat

# (module, function, count distinct argument tuples). cokernel_rep and
# lift_from_perp are left out: no workload reaches them.
FUNCTIONS = [
    (repcat, "hom_space", True),
    (repcat, "hom_dim", True),
    (repcat, "ext1_dim", True),
    (repcat, "decompose", True),
    (repcat, "is_isomorphic", True),
    (repcat, "end_dim", True),
    (perpcat, "perp_algebra", True),
    (perpcat, "bongartz_complement", True),
    (perpcat, "transport_into_perp", True),
    (exceptional, "is_exceptional", False),
    (exceptional, "enumerate_exceptional", False),
    (exceptional, "enumerate_complete_exceptional_sequences", False),
    (exceptional, "is_tilting_module", False),
    (strat, "stratify_along_sequence", False),
    (strat, "verify_jordan_holder", False),
    (cli, "main", False),
]

# Mat methods that run an elimination; nested ones (inverse -> solve_matrix
# -> _echelon) are not recorded again.
ELIMINATION = ("rank", "kernel_basis", "solve", "solve_matrix", "inverse",
               "column_space_pivot_rows", "_echelon")


def _key(x):
    """A hashable, equality-comparable stand-in for an argument."""
    if isinstance(x, perpcat.PerpPresentation):
        return ("perp", x.source)
    if isinstance(x, (list, tuple)):
        return tuple(_key(y) for y in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _key(v)) for k, v in x.items()))
    return x


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = 0
        self.distinct = defaultdict(set)
        self.counts = Counter()
        self.excluded = []
        self._in_elimination = False

    def _record(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (parent, self.request, name, start, end)

    def _wrap_function(self, name, fn, track_distinct):
        tracer = self

        def wrapper(*args, **kwargs):
            if track_distinct:
                tracer.distinct[name, tracer.request].add((_key(args), _key(kwargs)))
            result = tracer._record(name, fn, args, kwargs)
            if name == "perpcat.perp_algebra":
                tracer.counts[f"perpcat.perp_algebra.{result.branch}"] += 1
            elif name == "exceptional.enumerate_exceptional":
                tracer.counts["exceptional.found"] += len(result.reps)
                tracer.counts["exceptional.unresolved"] += len(result.unresolved_roots)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_method(self, method, fn):
        tracer = self

        def wrapper(m, *args, **kwargs):
            if tracer._in_elimination:
                return fn(m, *args, **kwargs)
            field = "qq" if m.field.is_rational else "fp"
            tracer.counts[f"exactlin.{field}.elim.cells"] += m.rows * m.cols
            tracer._in_elimination = True
            try:
                return tracer._record(f"exactlin.{field}.{method}", fn, (m, *args), kwargs)
            finally:
                tracer._in_elimination = False

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every function in FUNCTIONS wherever the package binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "strata" or name.startswith("strata."))]
        for module, fname, track in FUNCTIONS:
            fn = getattr(module, fname)
            wrapped = self._wrap_function(f"{_layer(module)}.{fname}", fn, track)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
        for method in ELIMINATION:
            setattr(exactlin.Mat, method, self._wrap_method(method, getattr(exactlin.Mat, method)))

    def exclude(self, start: float, end: float):
        """Take [start, end), spent outside the package, out of the open spans."""
        self.excluded.append((tuple(self.stack), start, end))

    def _durations(self):
        durations = [end - start for _, _, _, start, end in self.spans]
        for stack, s, e in self.excluded:
            for idx in stack:
                if self.spans[idx][3] <= s and e <= self.spans[idx][4]:
                    durations[idx] -= e - s
        return durations

    def metrics(self) -> dict:
        duration = self._durations()
        child_time = defaultdict(float)
        for idx, (parent, _, _, _, _) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += duration[idx]
        calls = Counter()
        self_s = defaultdict(float)
        durations = defaultdict(list)
        for idx, (_, _, name, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += duration[idx] - child_time[idx]
            durations[name].append(duration[idx])

        out = {}
        for field in ("qq", "fp"):
            names = [f"exactlin.{field}.{m}" for m in ELIMINATION]
            out[f"exactlin.{field}.elim.calls"] = sum(calls[n] for n in names)
            out[f"exactlin.{field}.elim.self_s"] = sum(self_s[n] for n in names)
            out[f"exactlin.{field}.elim.cells"] = self.counts[f"exactlin.{field}.elim.cells"]
            out[f"exactlin.{field}.kernel_basis.calls"] = calls[f"exactlin.{field}.kernel_basis"]
            out[f"exactlin.{field}.kernel_basis.self_s"] = self_s[f"exactlin.{field}.kernel_basis"]
        for module, fname, track in FUNCTIONS:
            name = f"{_layer(module)}.{fname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            if track:
                out[f"{name}.distinct"] = len(self.distinct_keys(name))
        for name in ("repcat.hom_space", "perpcat.perp_algebra", "repcat.decompose"):
            out[f"{name}.repeat_share"] = (
                1 - out[f"{name}.distinct"] / out[f"{name}.calls"] if out[f"{name}.calls"] else 0.0
            )
        for branch in ("bongartz", "projective"):
            out[f"perpcat.perp_algebra.{branch}"] = self.counts[f"perpcat.perp_algebra.{branch}"]
        tried = out["exceptional.is_exceptional.calls"]
        out["exceptional.hit_ratio"] = self.counts["exceptional.found"] / tried if tried else 0.0
        out["exceptional.unresolved"] = self.counts["exceptional.unresolved"]
        strat_ms = sorted(1000 * d for d in durations["strat.stratify_along_sequence"])
        out["strat.stratify_along_sequence.p50_ms"] = percentile(strat_ms, 50)
        out["strat.stratify_along_sequence.p90_ms"] = percentile(strat_ms, 90)
        return out

    def distinct_keys(self, name: str, request=None) -> set:
        sets = [keys for (n, req), keys in self.distinct.items()
                if n == name and request in (None, req)]
        return set().union(*sets)

    def per_request(self, name: str) -> dict:
        """{request: (calls, distinct argument tuples)} for one function."""
        calls = Counter(req for _, req, n, _, _ in self.spans if n == name)
        return {req: (c, len(self.distinct_keys(name, req))) for req, c in sorted(calls.items())}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for parent, req, name, start, end in self.spans:
                fh.write(json.dumps([parent, req, name, start, end]) + "\n")


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


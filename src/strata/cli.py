"""Command-line interface: parse quiver files, compute, report.

One verb per public operation. Exit status encodes the outcome: 0 for
success or a passing verification, 1 for a failed mathematical check, 2
for usage and parse errors (parse messages cite line numbers), 3 when
`decompose` could not settle a split.

Reports embed a hash of the canonicalized input (comments and whitespace
do not affect it) and echo the seed, and the machine-readable output is
byte-identical across runs. The seed only drives the candidate draws of
`decompose` and `bongartz`; enumeration is deterministic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .exactlin import GF, QQ, Field
from .quiver import ParseError, Quiver, parse_quiver_text
from .repcat import (
    Rep,
    UndecidedError,
    decompose,
    direct_sum,
    ext1_dim,
    hom_dim,
    parse_rep_blocks,
)
from .exceptional import (
    enumerate_complete_exceptional_sequences,
    enumerate_exceptional,
    is_tilting_module,
    tilting_coresolution,
)
from .perpcat import bongartz_complement, perp_algebra
from .strat import (
    endo_rings_of_simples,
    kronecker_demo,
    standard_stratification,
    stratify_along_sequence,
    verify_jordan_holder,
    verify_ringel_tilting,
)

VERBS = (
    "hom",
    "ext",
    "decompose",
    "exc-enum",
    "seq-enum",
    "tilting-check",
    "perp",
    "bongartz",
    "stratify",
    "jh-verify",
    "ringel-check",
    "kronecker-demo",
)


class UsageError(Exception):
    pass


def _canonical_rep(rep: Rep) -> str:
    f = rep.field
    lines = ["rep", "dims " + " ".join(str(d) for d in rep.dims)]
    for a, m in zip(rep.quiver.arrows, rep.maps):
        if m.rows == 0 or m.cols == 0:
            continue
        ent = " ".join(
            f.format(m.entry(i, j)) for i in range(m.rows) for j in range(m.cols)
        )
        lines.append(f"map {a.name} {ent}")
    return "\n".join(lines) + "\n"


def _load_input(path: str, prime):
    if path is None:
        raise UsageError("this verb needs an input file")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    field, quiver, rep_lines = parse_quiver_text(text)
    if prime is not None:
        field = GF(prime)
    reps = parse_rep_blocks(field, quiver, rep_lines)
    canonical = quiver.canonical_text(field) + "".join(_canonical_rep(r) for r in reps)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return field, quiver, reps, digest


def _field_name(field: Field) -> str:
    return "Q" if field.is_rational else f"F{field.characteristic}"


def _need_reps(reps, count, verb):
    if len(reps) != count:
        raise UsageError(
            f"{verb} expects exactly {count} representation block(s), got {len(reps)}"
        )


def _dims_set(text_dims) -> str:
    return "{" + ",".join(str(d) for d in text_dims) + "}"


def _run(args):
    verb = args.verb
    if args.bound < 1:
        raise UsageError(f"--bound must be at least 1, got {args.bound}")
    if verb == "kronecker-demo":
        if args.input is not None:
            raise UsageError("kronecker-demo takes no input file")
        p = args.prime if args.prime is not None else 5
        report = kronecker_demo(p)
        digest = hashlib.sha256(
            f"kronecker-demo prime={p}\n".encode("utf-8")
        ).hexdigest()
        report["verb"] = verb
        report["input_hash"] = digest
        report["seed"] = args.seed
        lines = [
            f"input-hash: {digest}",
            f"{report['regular_count']} regular simples over F_{p}",
            f"{report['ordered_pairs']} ordered pairs, all Hom- and Ext-orthogonal: "
            f"{'yes' if report['pairwise_hom_zero'] and report['pairwise_ext_zero'] else 'no'}",
            f"self-extension dimensions all 1: "
            f"{'yes' if all(e == 1 for e in report['self_ext_dims']) else 'no'}",
            "none exceptional: " + ("yes" if not report["any_exceptional"] else "no"),
            "PASS" if report["pass"] else "FAIL",
        ]
        return report, lines, 0 if report["pass"] else 1

    field, quiver, reps, digest = _load_input(args.input, args.prime)
    base = {
        "verb": verb,
        "input_hash": digest,
        "field": _field_name(field),
        "seed": args.seed,
    }
    head = [f"input-hash: {digest}"]

    if verb == "hom":
        _need_reps(reps, 2, verb)
        d = hom_dim(reps[0], reps[1])
        return {**base, "hom_dim": d}, head + [f"Hom dimension: {d}"], 0

    if verb == "ext":
        _need_reps(reps, 2, verb)
        d = ext1_dim(reps[0], reps[1])
        return {**base, "ext1_dim": d}, head + [f"Ext^1 dimension: {d}"], 0

    if verb == "decompose":
        _need_reps(reps, 1, verb)
        parts = decompose(reps[0], seed=args.seed)
        dims = [list(p.dims) for p in parts]
        lines = head + [f"{len(parts)} indecomposable summand(s)"]
        lines += [f"  dim {tuple(p.dims)}" for p in parts]
        return {**base, "summands": dims}, lines, 0

    if verb == "exc-enum":
        res = enumerate_exceptional(quiver, field, args.bound)
        report = {
            **base,
            "bound": args.bound,
            "exceptionals": [list(r.dims) for r in res.reps],
        }
        lines = head + [f"{len(res.reps)} exceptional module(s) up to bound {args.bound}"]
        lines += [f"  dim {tuple(r.dims)}" for r in res.reps]
        return report, lines, 0

    if verb == "seq-enum":
        seqs = enumerate_complete_exceptional_sequences(quiver, field, args.bound)
        report = {
            **base,
            "bound": args.bound,
            "sequence_count": len(seqs),
            "sequences": [[list(x.dims) for x in s] for s in seqs],
        }
        lines = head + [f"{len(seqs)} complete exceptional sequence(s)"]
        lines += [
            "  " + " ".join(str(tuple(x.dims)) for x in s) for s in seqs
        ]
        return report, lines, 0

    if verb == "tilting-check":
        if not reps:
            raise UsageError("tilting-check expects at least one representation block")
        T = direct_sum(reps) if len(reps) > 1 else reps[0]
        ok = is_tilting_module(T)
        report = {**base, "is_tilting": ok}
        if ok:
            report["coresolution_ok"] = tilting_coresolution(T).verify()
        lines = head + [f"tilting: {'yes' if ok else 'no'}"]
        if ok:
            lines.append(
                f"coresolution check: {'ok' if report['coresolution_ok'] else 'failed'}"
            )
        return report, lines, 0

    if verb == "perp":
        _need_reps(reps, 1, verb)
        pres = perp_algebra(reps[0])
        q = pres.algebra_quiver
        report = {
            **base,
            "branch": pres.branch,
            "algebra": q.describe(),
            "projectives": [list(p.dims) for p in pres.projectives_in_ambient],
        }
        lines = head + [
            f"branch: {pres.branch}",
            f"perpendicular algebra: {q.n} vertices, {len(q.arrows)} arrow(s)",
        ]
        lines += [f"  projective {j + 1}: dim {tuple(p.dims)}"
                  for j, p in enumerate(pres.projectives_in_ambient)]
        return report, lines, 0

    if verb == "bongartz":
        _need_reps(reps, 1, verb)
        m = bongartz_complement(reps[0])
        parts = decompose(m, seed=args.seed)
        report = {
            **base,
            "complement_dims": list(m.dims),
            "summands": [list(p.dims) for p in parts],
        }
        lines = head + [f"complement dim {tuple(m.dims)}"]
        lines += [f"  summand dim {tuple(p.dims)}" for p in parts]
        return report, lines, 0

    if verb == "stratify":
        if reps:
            chain = stratify_along_sequence(quiver, reps)
        else:
            chain = standard_stratification(quiver, field)
        report = {
            **base,
            "length": chain.length,
            "factors": list(chain.factor_dims()),
            "factor_labels": [f.source_label for f in chain.factors],
            "generators": [list(g.dims) for g in chain.generators],
            "algebras": [a.describe() for a in chain.algebras],
        }
        lines = head + [
            f"chain length {chain.length}",
            "factors " + _dims_set(chain.factor_dims()),
        ]
        lines += [f"  step {i + 1}: peel dim {tuple(g.dims)} ({chain.factors[i].source_label})"
                  for i, g in enumerate(chain.generators)]
        return report, lines, 0

    if verb == "jh-verify":
        report = verify_jordan_holder(quiver, args.bound, field=field)
        report.update(base)
        expected = sorted(
            f.division_ring_dim for f in endo_rings_of_simples(quiver, field)
        )
        status = "PASS" if report["pass"] else "FAIL"
        lines = head + [
            f"{report['sequence_count']} sequences, factors "
            f"{_dims_set(expected)}, {status}"
        ]
        for w in report["warnings"]:
            lines.append(f"warning: {w}")
        return report, lines, 0 if report["pass"] else 1

    if verb == "ringel-check":
        if not reps:
            raise UsageError("ringel-check expects at least one representation block")
        T = direct_sum(reps) if len(reps) > 1 else reps[0]
        try:
            report = verify_ringel_tilting(quiver, T)
        except ValueError as e:
            raise UsageError(str(e)) from e
        report.update(base)
        status = "PASS" if report["pass"] else "FAIL"
        lines = head + [
            "summand End dims " + _dims_set(report["summand_end_dims"]),
            "simple End dims " + _dims_set(report["simple_end_dims"]),
            status,
        ]
        return report, lines, 0 if report["pass"] else 1

    raise UsageError(f"unknown verb {verb!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="strata",
        description="Exceptional sequences and stratifications of path algebras.",
    )
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("input", nargs="?", help="quiver/rep text file")
    parser.add_argument("--bound", type=int, default=4,
                        help="total-dimension cap for enumeration (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the candidate draws of decompose and "
                        "bongartz; echoed in every report (default 0)")
    parser.add_argument("--prime", type=int, default=None,
                        help="work over F_p instead of the file's field")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit one machine-readable JSON document")
    args = parser.parse_args(argv)

    try:
        report, lines, code = _run(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UndecidedError as e:
        print(f"undecided: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

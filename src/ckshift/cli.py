"""Batch command-line front end.

Reads a matrix file (JSON ``{"n": ..., "rows": [[...], ...]}`` or plain
text rows), runs entropy computations or symbolic verifications, and emits
text, JSON or CSV.  Numeric JSON fields are decimal strings with 15
significant digits so output is byte-stable across runs.

Exit codes: 0 success, 1 verification mismatch, 2 operational error (bad
input, I/O, exhausted recursion or memory, or an internal error), reported
as one line on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from .matrix import (
    _fmt_count,
    _word_counts,
    dual_matrix,
    is_irreducible,
    is_permutation,
    load_int_matrix,
    load_matrix,
)
from .sft import (
    _estimate_rows,
    _fmt,
    entropy_estimates,
    enumerate_words,
    markov_entropy,
    parry_measure,
)

LOG2 = math.log(2.0)


def _emit_json(obj) -> None:
    # streamed, but in batches of chunks: stdout may be unbuffered
    chunks = itertools.chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj), "\n")
    for batch in iter(lambda: "".join(itertools.islice(chunks, 4096)), ""):
        sys.stdout.write(batch)


def _warn(message: str) -> None:
    sys.stderr.write(f"warning: {message}\n")


def _reject_csv(args) -> None:
    if args.format == "csv":
        raise ValueError(f"the {args.command} command has no CSV form; use text or json")


def _scale(base: str) -> float:
    return LOG2 if base == "bits" else 1.0


def _cmd_validate(args) -> int:
    _reject_csv(args)
    mat = load_matrix(args.matrix)
    info = {
        "n": mat.n,
        "irreducible": is_irreducible(mat),
        "permutation": is_permutation(mat),
    }
    if args.format == "json":
        _emit_json(info)
    else:
        print(f"valid transition matrix, n={info['n']}")
        print(f"irreducible: {info['irreducible']}")
        print(f"permutation: {info['permutation']}")
    return 0


def _cmd_entropy(args) -> int:
    _reject_csv(args)
    mat = load_matrix(args.matrix)
    irreducible = is_irreducible(mat)
    warnings = [] if irreducible else ["matrix is not irreducible"]
    if is_permutation(mat):
        warnings.append("matrix is a permutation")
    for w in warnings:
        _warn(w)
    scale = _scale(args.base)
    k = args.k_max
    (last,) = _estimate_rows(mat, k, k_min=k)
    log_radius = markov = None
    if irreducible:
        pd = parry_measure(mat, args.tol)
        log_radius = math.log(pd.radius) / scale
        markov = markov_entropy(pd) / scale
    ratio = last.ratio / scale
    growth = last.growth / scale
    if args.format == "json":
        _emit_json(
            {
                "k": k,
                "base": args.base,
                "log_radius": None if log_radius is None else _fmt(log_radius),
                "markov_entropy": None if markov is None else _fmt(markov),
                "ratio": _fmt(ratio),
                "eq3": _fmt(growth),
                "warnings": warnings,
            }
        )
    else:
        na = "n/a (matrix not irreducible)"
        print(f"log spectral radius     {na if log_radius is None else _fmt(log_radius)}")
        print(f"markov entropy          {na if markov is None else _fmt(markov)}")
        print(f"ratio estimate (k={k})   {_fmt(ratio)}")
        print(f"growth estimate (k={k})  {_fmt(growth)}")
    return 0


def _cmd_words(args) -> int:
    mat = load_matrix(args.matrix)
    words = enumerate_words(mat, args.k_max)
    if args.format == "json":
        _emit_json({"k": args.k_max, "count": len(words), "words": [list(w) for w in words]})
    elif args.format == "csv":
        for w in words:
            print(",".join(map(str, w)))
    else:
        for w in words:
            print(" ".join(map(str, w)))
    return 0


def _cmd_parry(args) -> int:
    _reject_csv(args)
    mat = load_matrix(args.matrix)
    pd = parry_measure(mat, args.tol)
    scale = _scale(args.base)
    entropy = markov_entropy(pd) / scale
    if args.format == "json":
        _emit_json(
            {
                "base": args.base,
                "radius": _fmt(pd.radius),
                "stationary": [_fmt(x) for x in pd.stationary],
                "stochastic": [[_fmt(x) for x in row] for row in pd.stochastic],
                "markov_entropy": _fmt(entropy),
            }
        )
    else:
        print(f"spectral radius  {_fmt(pd.radius)}")
        print(f"markov entropy   {_fmt(entropy)}")
        print("stationary       " + " ".join(_fmt(x) for x in pd.stationary))
        print("stochastic matrix:")
        for row in pd.stochastic:
            print("  " + " ".join(_fmt(x) for x in row))
    return 0


def _cmd_dual(args) -> int:
    _reject_csv(args)
    dual = dual_matrix(load_int_matrix(args.matrix))
    edges, a_prime, s, t = dual.edge_labels, dual.a_prime.entries, dual.s_factor, dual.t_factor
    if args.format == "json":
        _emit_json({"edge_count": len(edges), "edges": edges, "a_prime": a_prime, "s": s, "t": t})
    else:
        print(f"edge alphabet size {len(edges)}")
        print("edges (source, target, copy): " + " ".join(map(str, edges)))
        titles = ("edge matrix:", "left factor S:", "right factor T:")
        # edges into one state share their rows of A' and T: format each
        # distinct row once
        lines: dict[tuple, str] = {}
        for title, rows in zip(titles, (a_prime, s, t)):
            print(title)
            for row in rows:
                line = lines.get(row)
                if line is None:
                    line = lines[row] = "  " + " ".join(map(str, row))
                print(line)
    return 0


def _cmd_convergence(args) -> int:
    mat = load_matrix(args.matrix)
    scale = _scale(args.base)
    report = entropy_estimates(mat, args.k_max)
    # w(k + n0) for k = 1..k_max
    counts = _word_counts(mat, args.k_max + args.n0, 1 + args.n0)
    witness = [math.log(wn) / row.k / scale for row, wn in zip(report.rows, counts)]
    target = None if report.target is None else report.target / scale
    rows = [
        {
            "k": row.k,
            "w_k": _fmt_count(row.count),
            "eq3": _fmt(row.growth / scale),
            "ratio": _fmt(row.ratio / scale),
            "witness": _fmt(wit),
        }
        for row, wit in zip(report.rows, witness)
    ]
    if args.format == "json":
        _emit_json(
            {
                "base": args.base,
                "n0": args.n0,
                "target": None if target is None else _fmt(target),
                "rows": rows,
            }
        )
    elif args.format == "csv":
        print("k,w_k,eq3,ratio,witness")
        for r in rows:
            print(f"{r['k']},{r['w_k']},{r['eq3']},{r['ratio']},{r['witness']}")
    else:
        print(f"{'k':>4} {'w_k':>22} {'eq3':>20} {'ratio':>20} {'witness':>20}")
        for r in rows:
            wk = r["w_k"] if len(r["w_k"]) <= 22 else r["w_k"][:19] + "..."
            print(f"{r['k']:>4} {wk:>22} {r['eq3']:>20} {r['ratio']:>20} {r['witness']:>20}")
        if target is not None:
            print(f"target log r(A): {_fmt(target)}")
    return 0


def _finish_verification(args, report) -> int:
    if report.ok:
        if args.format == "json":
            _emit_json(report.to_json_dict())
        else:
            print(f"all {report.cases} cases passed")
        return 0
    _emit_json(report.to_json_dict())
    return 1


def _cmd_verify_ck(args) -> int:
    from .ck import CuntzKriegerAlgebra, verify_relations

    mat = load_matrix(args.matrix)
    alg = CuntzKriegerAlgebra(mat)
    report = verify_relations(alg, inject_fault=args.inject_fault)
    return _finish_verification(args, report)


def _cmd_verify_witnesses(args) -> int:
    from .ck import CuntzKriegerAlgebra, verify_witness_decomposition

    mat = load_matrix(args.matrix)
    alg = CuntzKriegerAlgebra(mat)
    report = verify_witness_decomposition(
        alg, args.n0, args.n, inject_fault=args.inject_fault
    )
    return _finish_verification(args, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckshift",
        description="Entropy of a subshift of finite type and symbolic "
        "verification of its generator algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, tol=False, k_max=None, k_required=False, n0=None, nn=None,
               base=False, fault=False):
        sp.add_argument("--matrix", required=True, help="path to the matrix file")
        sp.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )
        if tol:
            sp.add_argument("--tol", type=float, default=1e-12,
                            help="numeric tolerance (default 1e-12)")
        if k_max is not None or k_required:
            sp.add_argument("--k-max", dest="k_max", type=int, default=k_max,
                            required=k_required, help="word length bound")
        if n0 is not None:
            sp.add_argument("--n0", type=int, default=n0,
                            help=f"generator word-length bound (default {n0})")
        if nn is not None:
            sp.add_argument("--n", type=int, default=nn,
                            help=f"shift power bound (default {nn})")
        if base:
            sp.add_argument("--base", choices=("natural", "bits"),
                            default="natural", help="logarithm base for entropies")
        if fault:
            sp.add_argument("--inject-fault", action="store_true",
                            help=argparse.SUPPRESS)

    sp = sub.add_parser("validate", help="validate a transition matrix file")
    common(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("entropy", help="entropy by spectral radius, Markov "
                        "measure, and word growth")
    common(sp, tol=True, k_max=30, base=True)
    sp.set_defaults(func=_cmd_entropy)

    sp = sub.add_parser("words", help="list the admissible words of a given length")
    common(sp, k_required=True)
    sp.set_defaults(func=_cmd_words)

    sp = sub.add_parser("parry", help="maximal-entropy Markov measure")
    common(sp, tol=True, base=True)
    sp.set_defaults(func=_cmd_parry)

    sp = sub.add_parser("dual", help="edge-matrix factorization of an integer matrix")
    common(sp)
    sp.set_defaults(func=_cmd_dual)

    sp = sub.add_parser("convergence", help="word-growth estimator table")
    common(sp, k_max=30, n0=2, base=True)
    sp.set_defaults(func=_cmd_convergence)

    sp = sub.add_parser("verify-ck", help="verify the generator relations exactly")
    common(sp, fault=True)
    sp.set_defaults(func=_cmd_verify_ck)

    sp = sub.add_parser("verify-lemma2", help="verify the block-embedding "
                        "witness decomposition exactly")
    common(sp, n0=2, nn=2, fault=True)
    sp.set_defaults(func=_cmd_verify_witnesses)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RecursionError) as exc:
        message = str(exc)
    except MemoryError:
        message = "out of memory"
    except Exception as exc:
        message = f"internal error: {type(exc).__name__}: {exc}"
    sys.stderr.write(f"error: {message}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())

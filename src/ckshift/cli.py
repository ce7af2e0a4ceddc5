"""Batch command-line front end.

Reads a matrix file (JSON ``{"n": ..., "rows": [[...], ...]}`` or plain
text rows), runs entropy computations or symbolic verifications, and emits
text or JSON.  Numeric JSON fields are decimal strings with 15 significant
digits so output is byte-stable across runs.  ``--format csv`` exists only
for ``words`` and ``convergence``; every other subcommand exits 2 with one
line under it.  Each subcommand is one row of the table in
``build_parser``: its handler, help, CSV form and flags.

``validate``, ``entropy``, ``words`` and ``convergence`` build each figure
once, as the string that both forms print, and hand their JSON document
and their text lines to ``_show``, which writes the one that ``--format``
asks for.  ``parry`` and ``dual`` write their rows one line at a time
instead: a row of the Parry matrix has n cells and one of the edge matrix
has one per edge, so a batch of rows would hold many megabytes at once on
a large matrix.

Exit codes: 0 success, 1 verification mismatch, 2 operational error (bad
input, I/O, exhausted recursion or memory, or an internal error), reported
as one line on stderr.  A stdout that fails (a closed pipe, a full disk) is
an I/O error: exit 2, the one line only where stderr can still take it, and
the stream pointed at devnull, so that the flush at exit cannot fail again.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from .matrix import (
    NotIrreducibleError,
    _check_tol,
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
    _log_radius,
    _row_fields,
    enumerate_words,
    markov_entropy,
    parry_measure,
)

LOG2 = math.log(2.0)


def _emit(chunks) -> None:
    """Write an iterable of non-empty strings to stdout, streamed, but in
    batches of 4096 chunks: stdout may be unbuffered."""
    chunks = iter(chunks)
    for batch in iter(lambda: "".join(itertools.islice(chunks, 4096)), ""):
        sys.stdout.write(batch)


def _emit_json(obj) -> None:
    _emit(itertools.chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj), "\n"))


def _emit_json_rows(obj: dict) -> None:
    """``_emit_json`` for a dict whose values are ints or lists of rows: the
    same bytes, with each distinct row encoded once and its text reused."""
    text = functools.cache(lambda row: json.dumps(row, indent=2).replace("\n", "\n    "))
    write = sys.stdout.write
    for n, key in enumerate(sorted(obj)):
        write(("," if n else "{") + "\n  " + json.dumps(key) + ": ")
        value = obj[key]
        if isinstance(value, int) or not value:
            write(json.dumps(value))
            continue
        for r, row in enumerate(value):
            write(("," if r else "[") + "\n    " + text(row))
        write("\n  ]")
    write("\n}\n")


def _show(args, doc, lines) -> int:
    """Write a subcommand's output and return 0: ``doc`` under ``--format
    json``, else ``lines``, the text or CSV lines without their newlines."""
    if args.format == "json":
        _emit_json(doc)
    else:
        _emit(line + "\n" for line in lines)
    return 0


def _scale(base: str) -> float:
    return LOG2 if base == "bits" else 1.0


def _cmd_validate(args) -> int:
    mat = load_matrix(args.matrix)
    info = {
        "n": mat.n,
        "irreducible": is_irreducible(mat),
        "permutation": is_permutation(mat),
    }
    return _show(args, info, [
        f"valid transition matrix, n={info['n']}",
        f"irreducible: {info['irreducible']}",
        f"permutation: {info['permutation']}",
    ])


def _cmd_entropy(args) -> int:
    mat = load_matrix(args.matrix)
    _check_tol(args.tol)  # a bad --tol wins over a bad --k-max
    scale = _scale(args.base)
    k = args.k_max
    (last,) = _estimate_rows(mat, k, k_min=k)
    warnings = []
    log_radius = markov = None
    try:
        pd = parry_measure(mat, args.tol)
    except NotIrreducibleError:
        warnings.append("matrix is not irreducible")
    else:
        log_radius = _fmt(math.log(pd.radius) / scale)
        markov = _fmt(markov_entropy(pd) / scale)
    if is_permutation(mat):
        warnings.append("matrix is a permutation")
    for w in warnings:
        sys.stderr.write(f"warning: {w}\n")
    doc = {
        "k": k,
        "base": args.base,
        "log_radius": log_radius,
        "markov_entropy": markov,
        "ratio": _fmt(last.ratio / scale),
        "eq3": _fmt(last.growth / scale),
        "warnings": warnings,
    }
    na = "n/a (matrix not irreducible)"
    return _show(args, doc, [
        f"log spectral radius     {log_radius or na}",
        f"markov entropy          {markov or na}",
        f"ratio estimate (k={k})   {doc['ratio']}",
        f"growth estimate (k={k})  {doc['eq3']}",
    ])


def _cmd_words(args) -> int:
    mat = load_matrix(args.matrix)
    words = enumerate_words(mat, args.k_max)
    sep = "," if args.format == "csv" else " "
    doc = {"k": args.k_max, "count": len(words), "words": words}
    return _show(args, doc, (sep.join(map(str, w)) for w in words))


def _cmd_parry(args) -> int:
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
    dual = dual_matrix(load_int_matrix(args.matrix))
    edges, a_prime, s, t = dual.edge_labels, dual.a_prime.entries, dual.s_factor, dual.t_factor
    if args.format == "json":
        # edges into one state share their rows of A' and T: encode each
        # distinct row once
        _emit_json_rows({"edge_count": len(edges), "edges": edges, "a_prime": a_prime, "s": s, "t": t})
    else:
        print(f"edge alphabet size {len(edges)}")
        print("edges (source, target, copy): " + " ".join(map(str, edges)))
        titles = ("edge matrix:", "left factor S:", "right factor T:")
        # edges into one state share their rows of A' and T: format each
        # distinct row once
        line = functools.cache(lambda row: "  " + " ".join(map(str, row)))
        for title, rows in zip(titles, (a_prime, s, t)):
            print(title)
            for row in rows:
                print(line(row))
    return 0


def _cmd_convergence(args) -> int:
    mat = load_matrix(args.matrix)
    scale, k_max, n0 = _scale(args.base), args.k_max, args.n0
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    # the estimators take w(1..k_max + 1) and the witness column w(k + n0)
    # for k = 1..k_max: one count where the two ranges meet, else the
    # witness column from a deep start of its own
    if n0 <= k_max:
        counts = _word_counts(mat, k_max + max(n0, 1))
        estimates, shifted = _estimate_rows(mat, k_max, counts=counts), counts[n0:]
    else:
        estimates = _estimate_rows(mat, k_max)
        shifted = _word_counts(mat, k_max + n0, 1 + n0)
    target = _log_radius(mat)
    target = None if target is None else _fmt(target / scale)
    rows = [
        dict(_row_fields(row, scale), witness=_fmt(math.log(wn) / row.k / scale))
        for row, wn in zip(estimates, shifted)
    ]
    if args.format == "csv":
        lines = ["k,w_k,eq3,ratio,witness", *(",".join(map(str, r.values())) for r in rows)]
    else:
        lines = [f"{'k':>4} {'w_k':>22} {'eq3':>20} {'ratio':>20} {'witness':>20}"]
        for r in rows:
            wk = r["w_k"] if len(r["w_k"]) <= 22 else r["w_k"][:19] + "..."
            lines.append(f"{r['k']:>4} {wk:>22} {r['eq3']:>20} {r['ratio']:>20} {r['witness']:>20}")
        if target is not None:
            lines.append(f"target log r(A): {target}")
    doc = {"base": args.base, "n0": n0, "target": target, "rows": rows}
    return _show(args, doc, lines)


def _cmd_verify_ck(args) -> int:
    return _verify(args, "verify_relations")


def _cmd_verify_witnesses(args) -> int:
    return _verify(args, "verify_witness_decomposition", args.n0, args.n)


def _verify(args, verifier: str, *bounds) -> int:
    """Run ``ck.<verifier>`` over the algebra of the matrix.  A pass prints
    one line (the report under json) and returns 0; a mismatch prints the
    report and returns 1."""
    from . import ck  # only the verify commands load the algebra

    alg = ck.CuntzKriegerAlgebra(load_matrix(args.matrix))
    report = getattr(ck, verifier)(alg, *bounds, inject_fault=args.inject_fault)
    if report.ok and args.format != "json":
        _emit([f"all {report.cases} cases passed\n"])
    else:
        _emit_json(report.to_json_dict())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckshift",
        description="Entropy of a subshift of finite type and symbolic "
        "verification of its generator algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags a subcommand may take after --matrix and --format
    tol = ("--tol", dict(type=float, default=1e-12, help="numeric tolerance (default 1e-12)"))
    k_max = ("--k-max", dict(type=int, default=30, help="word length bound"))
    k_required = ("--k-max", dict(type=int, required=True, help="word length bound"))
    n0 = ("--n0", dict(type=int, default=2, help="generator word-length bound (default 2)"))
    nn = ("--n", dict(type=int, default=2, help="shift power bound (default 2)"))
    base = ("--base", dict(choices=("natural", "bits"), default="natural",
                           help="logarithm base for entropies"))
    fault = ("--inject-fault", dict(action="store_true", help=argparse.SUPPRESS))
    # one row per subcommand: name, handler, help, whether it has a CSV
    # form, and its flags in order; built on each call, so a handler
    # patched into the module is the one that runs
    commands = (
        ("validate", _cmd_validate, "validate a transition matrix file", False, ()),
        ("entropy", _cmd_entropy, "entropy by spectral radius, Markov measure, and word growth",
         False, (tol, k_max, base)),
        ("words", _cmd_words, "list the admissible words of a given length", True, (k_required,)),
        ("parry", _cmd_parry, "maximal-entropy Markov measure", False, (tol, base)),
        ("dual", _cmd_dual, "edge-matrix factorization of an integer matrix", False, ()),
        ("convergence", _cmd_convergence, "word-growth estimator table", True, (k_max, n0, base)),
        ("verify-ck", _cmd_verify_ck, "verify the generator relations exactly", False, (fault,)),
        ("verify-lemma2", _cmd_verify_witnesses,
         "verify the block-embedding witness decomposition exactly", False, (n0, nn, fault)),
    )
    for name, handler, help_text, csv, flags in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--matrix", required=True, help="path to the matrix file")
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default text)")
        for option, spec in flags:
            sp.add_argument(option, **spec)
        sp.set_defaults(func=handler, has_csv=csv)
    return parser


def _settle(stream) -> None:
    """Flush ``stream``; when it cannot take what is left in its buffer (a
    closed pipe, a full disk), point its descriptor at devnull instead, so
    that the flush at exit does not fail a second time and set the exit
    code.  This follows the note on SIGPIPE in the ``signal`` module docs."""
    try:
        stream.flush()
    except OSError:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
        except (OSError, ValueError):  # a stream without a descriptor
            pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format == "csv" and not args.has_csv:
            raise ValueError(f"the {args.command} command has no CSV form; use text or json")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except (OSError, ValueError, RecursionError) as exc:
        message = str(exc)
        if isinstance(exc, OSError):
            _settle(sys.stdout)
    except MemoryError:
        message = "out of memory"
    except Exception as exc:
        message = f"internal error: {type(exc).__name__}: {exc}"
    try:  # stderr may be the closed pipe too
        sys.stderr.write(f"error: {message}\n")
    except OSError:
        _settle(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

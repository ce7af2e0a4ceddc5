"""Span tracer for the benchmark's traced run.

It times the layers only from outside: ``install`` replaces each layer's
public functions with wrappers, in every module that binds them (``sft``,
``ck`` and ``cli`` import their own copies of ``word_count`` and friends),
and ``uninstall`` puts the originals back.  ``src/`` is never edited.

A span is (name, start, end, parent).  Self time is a span's duration
minus the time its child spans cover.  The verifier workload opens about
ten million spans per pass, far too many to keep, so each span is folded
into its function's totals when it closes; the totals are the same as those
computed from a stored span list.
"""

from __future__ import annotations

import functools
import time

import ckshift
from ckshift import ck, cli, matrix, sft

import references as ref

MODULES = (ckshift, matrix, sft, ck, cli)
LAYERS = ("matrix", "sft", "ck", "cli")

# cli subcommand -> the function that implements it
CLI_COMMANDS = {
    "validate": "_cmd_validate",
    "entropy": "_cmd_entropy",
    "words": "_cmd_words",
    "parry": "_cmd_parry",
    "dual": "_cmd_dual",
    "convergence": "_cmd_convergence",
    "verify-ck": "_cmd_verify_ck",
    "verify-lemma2": "_cmd_verify_witnesses",
}


class Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self, counters=()):
        self.calls = 0
        self.self_s = 0.0
        self.counters = dict.fromkeys(counters, 0)


# -- counters, taken after a span closes and charged to no span --------------


def _word_count(tracer, stat, args, out):
    c = stat.counters
    c["max_bits"] = max(c["max_bits"], out.bit_length())
    command = tracer.enclosing_command()
    if command is not None:
        command.counters["word_count_calls"] += 1


def _spectral_radius(tracer, stat, args, out):
    stat.counters["iterations"] += out.iterations


def _enumerate_words(tracer, stat, args, out):
    stat.counters["words"] += len(out)


def _partition_entropy(tracer, stat, args, out):
    pd, depth = args[0], args[1]
    support = [[1 if p > 0.0 else 0 for p in row] for row in pd.stochastic]
    stat.counters["words"] += ref.word_count(support, depth)


def _equal(tracer, stat, args, out):
    if args[1].terms or args[2].terms:
        stat.counters["useful"] += 1


def _witness_blocks(tracer, stat, args, out):
    c = stat.counters
    for block in out.values():
        c["nnz"] += int(block.sum())
        c["cells"] += block.size


def _block_embedding(tracer, stat, args, out):
    stat.counters["cells"] += len(out.index) ** 2


def _cases(tracer, stat, args, out):
    stat.counters["cases"] += out.cases


# (span name, owner, attribute, counter hook, counter names)
TARGETS = [
    ("matrix.word_count", matrix, "word_count", _word_count, ("max_bits",)),
    ("matrix.matrix_power", matrix, "matrix_power", None, ()),
    ("matrix.spectral_radius", matrix, "spectral_radius", _spectral_radius, ("iterations",)),
    ("matrix.validate", matrix, "validate", None, ()),
    ("matrix.is_irreducible", matrix, "is_irreducible", None, ()),
    ("matrix.dual_matrix", matrix, "dual_matrix", None, ()),
    ("sft.entropy_estimates", sft, "entropy_estimates", None, ()),
    ("sft.parry_measure", sft, "parry_measure", None, ()),
    ("sft.markov_entropy", sft, "markov_entropy", None, ()),
    ("sft.partition_entropy", sft, "partition_entropy", _partition_entropy, ("words",)),
    ("sft.enumerate_words", sft, "enumerate_words", _enumerate_words, ("words",)),
    ("ck.equal", ck.CuntzKriegerAlgebra, "equal", _equal, ("useful",)),
    ("ck.shift", ck.CuntzKriegerAlgebra, "shift", None, ()),
    ("ck.block_embedding", ck.CuntzKriegerAlgebra, "block_embedding", _block_embedding, ("cells",)),
    ("ck.witness_blocks", ck.CuntzKriegerAlgebra, "witness_blocks", _witness_blocks, ("nnz", "cells")),
    ("ck.words", ck.CuntzKriegerAlgebra, "words", None, ()),
    ("ck.multiply", ck.CKElement, "__mul__", None, ()),
    ("ck.verify_relations", ck, "verify_relations", _cases, ("cases",)),
    ("ck.verify_witness_decomposition", ck, "verify_witness_decomposition", _cases, ("cases",)),
    ("cli.main", cli, "main", None, ()),
] + [(f"cli.{cmd}", cli, fn, None, ("word_count_calls",)) for cmd, fn in CLI_COMMANDS.items()]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # open spans: [name, time covered by children]
        self._undo: list[tuple] = []
        for name, _, _, _, counters in TARGETS:
            self.stats[name] = Stat(counters)

    def enclosing_command(self) -> "Stat | None":
        for name, _ in reversed(self._stack):
            if name.startswith("cli.") and name != "cli.main":
                return self.stats[name]
        return None

    def _wrap(self, name, fn, hook):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.calls += 1
                stat.self_s += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                hook(tracer, stat, args, out)
                if stack:
                    stack[-1][1] += clock() - end
            return out

        return traced

    def install(self) -> None:
        for name, owner, attr, hook, _ in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, hook)
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                for module in MODULES:
                    for alias, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, alias, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, traced_walls: list, plain_walls: list) -> dict:
        """Per-layer metrics, each as (value, unit), from the traced passes'
        wall times and those of the untraced passes run beside them.

        Counts are per traced pass.  Self time is a share of the traced wall
        time (``self_pct``); ``self_s`` gives it in seconds per pass."""
        passes = len(traced_walls)
        traced_wall_s = sum(traced_walls)
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            c = st.counters
            layer_self[name.split(".")[0]] += st.self_s
            out[f"{name}.calls"] = (st.calls / passes, "count")
            out[f"{name}.self_s"] = (st.self_s / passes, "s")
            out[f"{name}.self_pct"] = (100.0 * st.self_s / traced_wall_s, "%")
            for key in ("iterations", "words", "cases", "word_count_calls"):
                if key in c:
                    out[f"{name}.{key}"] = (c[key] / passes, "count")
            if "max_bits" in c:
                out[f"{name}.max_bits"] = (c["max_bits"], "bits")
            if name == "ck.equal":
                out[f"{name}.useful_ratio"] = (c["useful"] / max(st.calls, 1), "ratio")
            if name == "ck.witness_blocks":
                out[f"{name}.nnz_ratio"] = (c["nnz"] / max(c["cells"], 1), "ratio")
            if name == "ck.block_embedding":
                out[f"{name}.cells"] = (c["cells"] / passes, "count")
        for layer, s in layer_self.items():
            out[f"{layer}.self_pct"] = (100.0 * s / traced_wall_s, "%")
        covered = sum(layer_self.values())
        # time outside every layer span: the benchmark's own code, the
        # tracer's bookkeeping and its counters
        out["trace.unattributed_pct"] = (100.0 * (traced_wall_s - covered) / traced_wall_s, "%")
        out["trace.wall_s"] = (min(traced_walls), "s")
        out["trace.overhead_ratio"] = (min(traced_walls) / min(plain_walls), "ratio")
        return out

"""Byte identity of every run in the grid of ``tests/cli_outputs.py``.

``tests/data/cli_digests.json`` holds, for each argv of the grid, the exit
code and the sha256 (first 16 hex digits) of stdout and of stderr; for an
argparse usage error, of its last stderr line only.  A change that prints
anything differently fails here, naming each argv and stream that differ.
When output changes on purpose, regenerate the digests with

    PYTHONPATH=src python tests/cli_outputs.py --digests tests/data/cli_digests.json

and list each changed argv, with the reason, in CHANGES.md.

The runs that load numpy (``entropy``, ``parry``, ``convergence``) print
floats from the Perron search, whose last digits can follow the BLAS kernel
and the numpy version; the ``numpy-floor`` CI job may see those differ, as
it may for the pinned float outputs under ``tests/data``.
"""

import json
from pathlib import Path

import cli_outputs

DIGESTS = Path(__file__).parent / "data" / "cli_digests.json"
STREAMS = ("exit code", "stdout", "stderr")


def test_every_run_prints_the_recorded_bytes():
    want = json.loads(DIGESTS.read_text())
    got = cli_outputs.digests(cli_outputs.record())
    differing = [f"{argv}: not run" for argv in want.keys() - got.keys()]
    differing += [f"{argv}: not recorded" for argv in got.keys() - want.keys()]
    for argv in sorted(want.keys() & got.keys()):
        differing += [
            f"{argv}: {stream}"
            for stream, old, new in zip(STREAMS, want[argv], got[argv])
            if old != new
        ]
    assert not differing, "\n".join(differing)

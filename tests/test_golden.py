"""Golden CLI outputs: stdout, stderr and exit code of fixed commands.

Each case runs ``main()`` in-process from ``tests/golden/`` and compares the
bytes with the stored files.  A change that moves an algorithm on purpose
regenerates them with

    PYTHONPATH=src python tests/test_golden.py --regen

and lists every changed line in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from slicehankel.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "verify": ["verify", "--trials", "3", "--seed", "0"],
    "demo": ["demo"],
    "hilbert": ["hilbert", "--n", "128"],
    "norm_depth3": ["norm", "--symbol", "depth3.txt"],
    "distance_depth3": ["distance", "--symbol", "depth3.txt"],
    "norm_rank_one": ["norm", "--symbol", "rank_one.txt"],
    "distance_rank_one": ["distance", "--symbol", "rank_one.txt"],
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out, err = _run(CASES[name])
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exits[name]
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err == (GOLDEN / f"{name}.stderr").read_bytes()


def _regenerate():
    exits = {}
    for name, argv in sorted(CASES.items()):
        code, out, err = _run(argv)
        exits[name] = code
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exits, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    _regenerate()

"""Golden CLI outputs: stdout, stderr and exit code of fixed commands.

Each case runs ``python -m slicehankel`` in a subprocess from
``tests/golden/`` with OpenBLAS, OpenMP and MKL pinned to one thread, and
compares the bytes with the stored files.  The pin matters: a dense SVD can
differ in its last bit between thread counts, so unpinned files would depend
on the machine.  A change that moves an algorithm on purpose regenerates them
with

    python tests/test_golden.py --regen

which writes every file and then prints the lines that changed in each, as
a diff, to be listed in CHANGES.md.
"""

import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

CASES = {
    "verify": ["verify", "--trials", "3", "--seed", "0"],
    "demo": ["demo"],
    "hilbert": ["hilbert", "--n", "128"],
    "hilbert_lanczos": ["hilbert", "--n", "1024"],
    "norm_depth3": ["norm", "--symbol", "depth3.txt"],
    "distance_depth3": ["distance", "--symbol", "depth3.txt"],
    "norm_rank_one": ["norm", "--symbol", "rank_one.txt"],
    "distance_rank_one": ["distance", "--symbol", "rank_one.txt"],
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(argv):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "slicehankel", *argv],
                          cwd=GOLDEN, env=env, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out, err = _run(CASES[name])
    exits = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == exits[name]
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    assert err == (GOLDEN / f"{name}.stderr").read_bytes()


def _regenerate():
    """Write every file first, then print the diffs, so that a reader that
    stops early (a pipe into head) cannot leave the set half regenerated."""
    files, exits = {}, {}
    for name, argv in sorted(CASES.items()):
        exits[name], files[f"{name}.stdout"], files[f"{name}.stderr"] = _run(argv)
    files["exit_codes.json"] = (json.dumps(exits, indent=1) + "\n").encode()
    old = {}
    for name, data in files.items():
        path = GOLDEN / name
        old[name] = path.read_bytes() if path.exists() else b""
        path.write_bytes(data)
    for name, data in files.items():
        for line in difflib.unified_diff(
                old[name].decode(errors="replace").splitlines(),
                data.decode(errors="replace").splitlines(),
                f"golden/{name}", f"golden/{name}", n=0, lineterm=""):
            print(line)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    _regenerate()

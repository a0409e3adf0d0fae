"""slicehankel benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload {nehari,hankel} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` (nothing is installed).  Each workload runs as a closed loop with
one caller in a fresh child process whose BLAS and OpenMP pools are pinned
to one thread.  ``--seconds`` sizes a fixed item list (see
``workloads.REF_UNIT_S``); the seed draws the inputs.  The list runs in
``workloads.REPEATS`` passes, and the item and pass times reported are the
best over the passes.  Untraced runs measure set-up in SETUP_RUNS fresh
processes and report the median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
around every call into the library, writes them to
``perfbench/out/trace-<workload>-seed<seed>.jsonl`` and prints the per-layer
metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every correctness gate passed, 1 when one failed or a run broke, 2 when
there is no library source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 160
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "peak_rss_mb": "MB",
}

BUSY_LAYERS = (
    "nehari.optimize_distance",
    "nehari.hankel_norm",
    "nehari.maximizing_vector",
    "nehari.constructive_best_approx",
    "hankel.operator_norm",
    "hankel.build_hankel_matrix",
    "series.linf_norm",
)

PER_LAYER = {
    **{f"{layer}.busy_s": "s" for layer in BUSY_LAYERS},
    "nehari.optimize_distance.evals_per_s": "1/s",
    "nehari.optimize_distance.evaluations": "count",
    "nehari.optimize_distance.converged_ratio": "ratio",
    "nehari.optimize_distance.gap_rel_p50": "ratio",
    "nehari.optimize_distance.gap_rel_max": "ratio",
    "nehari.constructive_best_approx.excluded_fraction_max": "ratio",
    "hankel.operator_norm.calls": "count",
    "hankel.operator_norm.embed_bytes": "bytes",
    "hankel.build_hankel_matrix.entries": "count",
    "series.linf_norm.samples": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def tail(values: list[float]) -> tuple[float, str]:
    """The highest order statistic with at least ten samples above it, with
    its percentile; with ten samples or fewer no percentile qualifies and the
    maximum is reported."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], f"max of n={n} (no percentile has ten samples above it)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"


def _child(args, extra: list[str]) -> dict:
    env = {**os.environ, **PINNED_THREADS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _source_record() -> tuple[int, str]:
    """Line count and sha256 of the library source, which identify the
    program version also in a checkout without git metadata."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, h.hexdigest()[:16]


def best_of_passes(item_s: list[float], repeats: int) -> tuple[list[float], float]:
    """Each item's best time over the passes, and the best time of a whole
    pass; pass p holds the items p * k .. (p + 1) * k - 1."""
    k = len(item_s) // repeats
    passes = [item_s[p * k:(p + 1) * k] for p in range(repeats)]
    return [min(ts) for ts in zip(*passes)], min(sum(ts) for ts in passes)


def end_to_end(setups: list[float], res: dict) -> tuple[dict, dict]:
    repeats = res["repeats"]
    best, best_pass = best_of_passes(res["item_s"], repeats)
    tail_s, tail_label = tail(best)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": best_pass,
        "item_s_p50": statistics.median(best),
        "item_s_tail": tail_s,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"time to solution for {len(best)} items, best of {repeats} "
                  f"passes; all passes took {res['wall_s']!r} s",
        "item_s_p50": f"n={len(best)} items, each the best of {repeats} passes",
        "item_s_tail": tail_label,
        "peak_rss_mb": "max resident set of the measuring process",
    }
    return values, notes


def per_layer(res: dict) -> dict:
    busy = res["busy_s"]
    values = {f"{layer}.busy_s": busy.get(layer, 0.0) for layer in BUSY_LAYERS}
    values.update(res["counts"])
    opt_busy = values["nehari.optimize_distance.busy_s"]
    values["nehari.optimize_distance.evals_per_s"] = (
        values["nehari.optimize_distance.evaluations"] / opt_busy if opt_busy else 0.0
    )
    values["trace.overhead_s"] = res["spans"] * res["span_cost_s"]
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("nehari", "hankel"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "slicehankel" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'slicehankel'}", file=sys.stderr)
        return 2

    extra = []
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        extra = ["--trace-file", str(trace_file)]
    try:
        setups = [_child(args, ["--setup-only"])["setup_s"]
                  for _ in range(0 if args.trace else SETUP_RUNS - 1)]
        res = _child(args, extra)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    src_lines, src_sha = _source_record()
    env = res["env"]
    pinned = " ".join(f"{k}={v}" for k, v in PINNED_THREADS.items())
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads=1 ({pinned}) nproc={os.cpu_count()} "
          f"commit={_commit()} src_lines={src_lines} src_sha256={src_sha}")
    print(f"inputs items={res['attempted']} digest={res['digest']}")

    failed = len(res["failures"])
    if args.trace:
        values = per_layer(res)
        units = PER_LAYER
        for name in units:
            kind = " (computed)" if name in res["counts"] else ""
            print(f"{name} = {values[name]!r} {units[name]}{kind}")
        print(f"trace spans={res['spans']} file={trace_file.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(setups, res)
        units = END_TO_END
        for name in units:
            print(f"{name} = {values[name]!r} {units[name]} ({notes[name]})")
        print("counts (computed): " + " ".join(
            f"{k}={v!r}" for k, v in res["counts"].items()))
    print(f"fail_ratio = {failed}/{res['attempted']} = {failed / res['attempted']!r}")
    for i, msgs in res["failures"].items():
        for msg in msgs:
            print(f"FAIL item {i}: {msg}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

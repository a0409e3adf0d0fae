"""One fresh measuring process for one workload; started by run.py.

Set-up is timed from the first line of this file: importing numpy and the
library, drawing the inputs from the seed, and one warm-up call into each
entry point.  The items then run one after another (a closed loop with one
caller), pass after pass, each timed as a whole; the correctness gates run
after the timed loop on every result.  The last line of stdout is one JSON object for run.py.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    items = workloads.make_inputs(args.workload, args.seed, args.seconds)
    workloads.warm_up()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tr = tracing.Tracer() if args.trace_file else tracing.NullTracer()
    item_s, results, errors = [], [], {}
    start = time.perf_counter()
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            with tr.span("item", i):
                results.append(wl.run(item, tr))
        except Exception as exc:  # an item that raises counts as failed
            results.append(None)
            errors[i] = [f"{type(exc).__name__}: {exc}"]
        item_s.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = {**wl.check(items, results), **errors}
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "item_s": item_s,
        "peak_rss_kb": peak_rss_kb,
        "attempted": len(items),
        "repeats": workloads.REPEATS,
        "failures": {str(i): failures[i] for i in sorted(failures)},
        "digest": workloads.input_digest(items),
        "counts": workloads.work_counts(items, results),
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas(),
        },
    }
    if args.trace_file:
        tr.write_jsonl(args.trace_file)
        out["busy_s"] = tr.busy_by_name()
        out["spans"] = len(tr.spans)
        out["span_cost_s"] = tracing.span_cost_s()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

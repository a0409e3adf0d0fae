"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

Inputs repeat for a seed, every correctness gate rejects a corrupted result,
the printed metric names match BENCHMARK.json, computed counts repeat
exactly, and the benchmark refuses to run without the library source.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from slicehankel.quat import Quaternion  # noqa: E402

NULL = tracing.NullTracer()


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_same_input_digest(workload):
    a = wl.input_digest(wl.make_inputs(workload, 7, 1))
    b = wl.input_digest(wl.make_inputs(workload, 7, 1))
    c = wl.input_digest(wl.make_inputs(workload, 8, 1))
    assert a == b
    assert a != c


def test_tail_is_highest_order_statistic_with_ten_above():
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0
    xs = [float(i) for i in range(30)]
    value, label = run.tail(xs)
    assert value == 19.0 and sum(x > value for x in xs) == 10
    assert label.startswith("p66.7")


def test_best_of_passes_takes_each_item_and_pass_minimum():
    best, best_pass = run.best_of_passes([3.0, 1.0, 2.0, 1.0, 5.0, 1.0], 2)
    assert best == [1.0, 1.0, 1.0]
    assert best_pass == 6.0


def test_passes_turn_inputs_without_changing_norms():
    items = wl.make_inputs("nehari", 3, 1)
    k = len(items) // wl.REPEATS
    first, second = items[0], items[k]
    assert first.phi != second.phi
    assert first.opt_seed == second.opt_seed
    assert set(first.phi.coeffs) == set(second.phi.coeffs)
    assert math.isclose(wl.hankel_norm(first.phi, 64), wl.hankel_norm(second.phi, 64),
                        rel_tol=1e-12)


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    tr.spans = [["item", 0.0, 10.0, None, 0], ["a", 1.0, 4.0, 0, 0],
                ["b", 5.0, 6.0, 0, 0]]
    assert tr.self_times() == [6.0, 3.0, 1.0]
    assert tr.busy_by_name() == {"item": 6.0, "a": 3.0, "b": 1.0}


def test_child_spans_share_the_item_id():
    tr = tracing.Tracer()
    with tr.span("item", 4):
        with tr.span("layer"):
            pass
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [("item", None, 4), ("layer", 0, 4)]


def test_nehari_gate_rejects_corrupted_results():
    items = wl.make_inputs("nehari", 3, 1)[:1]
    good = [wl.run_nehari(items[0], NULL)]
    assert wl.check_nehari(items, good) == {}
    hn = good[0]["hn"]

    below = copy.deepcopy(good)
    below[0]["iterates"][-1] = hn - 1e-3
    far = copy.deepcopy(good)
    far[0]["cons"] = hn * 1.05
    loose = copy.deepcopy(good)
    loose[0]["cons"] = loose[0]["opt"] = hn / 3.0
    for bad in (below, far, loose):
        assert 0 in wl.check_nehari(items, bad)


def test_hankel_gate_rejects_corrupted_results():
    table, *symbols = wl.make_inputs("hankel", 3, 1)[:5]  # the first pass
    items = [wl.HilbertItem(table.alphas[:9]),
             *(it for it in symbols if it.N == 256)]
    good = [wl.run_hankel(it, NULL) for it in items]
    assert wl.check_hankel(items, good) == {}
    norms = good[0]["norms"]

    def corrupted(i, **fields):
        bad = copy.deepcopy(good)
        bad[i].update(fields)
        return bad

    for i, bad in [
        (0, corrupted(0, norms=norms[:-1] + [norms[-1] + 1e-9])),
        (0, corrupted(0, norms=norms[:-1] + [math.pi])),
        (0, corrupted(0, norms=norms[:-1] + [norms[-2] - 1e-6])),
        (1, corrupted(1, hn=good[1]["hn"] * (1 + 1e-9))),
        (1, corrupted(1, g=good[1]["g"].times_right(Quaternion(1.01)))),
    ]:
        assert i in wl.check_hankel(items, bad)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_printed_metrics_match_benchmark_json(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        out = _last_json(proc.stdout)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {k: v["unit"] for k, v in out["metrics"].items()}
        assert printed == declared
        if trace == 0:
            assert all(v["value"] > 0 for v in out["metrics"].values())
    assert [w["name"] for w in spec["workloads"]] == ["nehari", "hankel"]


def test_computed_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _bench("--workload", "nehari", "--seed", "9", "--seconds", "1",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = _last_json(proc.stdout)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k in wl.COUNTED})
    assert counts[0] == counts[1]
    assert (counts[0]["series.linf_norm.samples"]
            == wl.units_for("nehari", 1) * wl.REPEATS * wl.NEHARI_GRID)


def test_fails_without_library_source():
    bare = BENCH / "out" / "no-source"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "test_*"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "nehari", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

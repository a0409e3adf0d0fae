import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slicehankel import cli, nehari
from slicehankel.cli import ExperimentConfig, main
from slicehankel.quat import Quaternion
from slicehankel.series import (
    SliceLaurentSeries,
    _half_samples,
    _plus_samples,
    _sup_values,
    conj_c,
    dumps_series,
    load_series,
    loads_series,
    project_plus,
    save_series,
    star_mul,
    symmetrize,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
GRID = ["--grid", "256"]
FAST = [*GRID, "--degree", "2", "--budget", "300"]
# the fast flags a symbol command reads: norm reads only the grid
SYMBOL_FAST = {"norm": GRID, "distance": FAST}


# the report lines that scale with the symbol; the records of
# optimizer_polynomial scale too, those of the unit maximizing_vector do not
_SCALED_FIELDS = {"hankel_norm", "linf_norm", "constructive_distance", "optimized_distance",
                  "optimizer_lower_bound"}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_passes_and_reports_rows(self, capsys):
        code, out, _ = run(capsys, ["verify", "--trials", "1", *FAST])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "suite,check,seed,measured,bound,pass"
        assert len(lines) > 1
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_zero_trials_header_only(self, capsys):
        code, out, _ = run(capsys, ["verify", "--trials", "0", *FAST])
        assert code == 0
        assert out.strip() == "suite,check,seed,measured,bound,pass"

    def test_debug_corrupt_fails(self, capsys, monkeypatch):
        rows = cli._verify_rows
        monkeypatch.setattr(cli, "_verify_rows", lambda config: [
            *rows(config), ("selftest", "forced_failure", config.seed, 1.0, 0.0)])
        code, out, _ = run(capsys, ["verify", "--trials", "0", *FAST])
        assert code == 1
        assert "forced_failure" in out
        assert out.strip().splitlines()[-1].endswith(",fail")

    def test_commutation_row_fails_on_non_hankel_action(self, capsys, monkeypatch):
        # H_phi z^k -> H_phi z^(2k) has the matrix alpha(j + 2k), not Hankel
        apply_H = cli.apply_H
        monkeypatch.setattr(cli, "apply_H",
                            lambda phi, f: apply_H(phi, f.shifted(f.n_min)))
        code, out, _ = run(capsys, ["verify", "--trials", "1", *FAST])
        assert code == 1
        rows = [line for line in out.splitlines() if ",commutation_residual," in line]
        assert len(rows) == 1 and rows[0].endswith(",fail")

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["verify", "--trials", "2", "--seed", "5", *FAST]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_rows(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["verify", "--trials", "1", "--seed", "1", *FAST, "--out", str(a)]) == 0
        assert main(["verify", "--trials", "1", "--seed", "2", *FAST, "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestConfig:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3, "truncation_N": 16, "grid": 256,
            "degree": 2, "budget": 300, "trials": 5,
        }))
        code, out, _ = run(
            capsys, ["verify", "--config", str(cfg), "--trials", "1"]
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert all(row.split(",")[2] == "3" for row in rows)
        # one trial despite trials=5 in the file
        assert len({row.split(",")[2] for row in rows}) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncationN": 16}))
        code, _, err = run(capsys, ["verify", "--config", str(cfg)])
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize("raw, field", [
        ({"seed": "x"}, "seed"),
        ({"grid": "4096"}, "grid"),
        ({"trials": True}, "trials"),
        ({"budget": 1.5}, "budget"),
        ({"output_path": 3}, "output_path"),
        (5, "JSON object"),
    ])
    def test_bad_config_types_are_usage_errors(self, tmp_path, capsys, raw, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, ["verify", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert err.count("\n") == 1

    def test_invalid_sizes_rejected(self, capsys):
        code, _, err = run(capsys, ["verify", "--grid", "1"])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, limit", [
        (["verify", "--trials", "0", "--grid", "2000000000"], "1048576"),
        (["norm", "--symbol", "missing.txt", "--grid", "2000000000"], "1048576"),
        (["distance", "--symbol", "missing.txt", "--grid", str(2**20 + 1)], "1048576"),
        (["hilbert", "--n", "2000000000"], "65536"),
        (["distance", "--symbol", "missing.txt", "--degree", "2000000000",
          "--budget", "100"], "256"),
    ])
    def test_oversize_is_usage_error(self, capsys, monkeypatch, argv, limit):
        # the caps must fire before any symbol is loaded or matrix built
        def unreachable(*args):
            raise AssertionError("size cap checked too late")

        monkeypatch.setattr(cli, "load_series", unreachable)
        monkeypatch.setattr(cli, "HankelMatrix", unreachable)
        monkeypatch.setattr(cli, "operator_norm", unreachable)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and limit in err
        assert err.count("\n") == 1

    def test_degree_and_grid_are_capped_apart(self, capsys):
        # no cap on (degree + 1) * grid: this pair, twice the old 2^23
        # product cap, runs in well under a second
        argv = ["distance", "--symbol", str(GOLDEN / "depth3.txt"),
                "--degree", "64", "--grid", "262144"]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        assert "optimizer_status: converged" in out

    def test_deep_symbol_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the depth cap must fire before any Hankel block is built
        def unreachable(*args):
            raise AssertionError("depth cap checked too late")

        monkeypatch.setattr(cli, "hankel_norm", unreachable)
        monkeypatch.setattr(cli, "approximation_report", unreachable)
        path = tmp_path / "deep.txt"
        save_series(SliceLaurentSeries({-1025: Quaternion(1.0)}), path)
        for command in ("norm", "distance"):
            code, out, err = run(capsys, [command, "--symbol", str(path)])
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "1025" in err and "1024" in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("command, symbol, k", [
        ("norm", "depth3", 600), ("norm", "depth3", -600),
        ("distance", "depth3", 600), ("distance", "depth3", -600),
        ("norm", "two-term", -930)])
    def test_output_scales_exactly_by_powers_of_two(self, tmp_path, capsys,
                                                    command, symbol, k):
        # far past the squares' overflow and underflow, every number and
        # every optimizer polynomial component is 2^k times its k = 0 value,
        # and the maximizing vector's lines are unchanged
        phi = (loads_series((GOLDEN / "depth3.txt").read_text()) if symbol == "depth3"
               else SliceLaurentSeries({-1: Quaternion(1.0), -2: Quaternion(0, 0, 1.0, 0)}))
        outputs = []
        for e in (0, k):
            path = tmp_path / f"scaled{e}.txt"
            save_series(SliceLaurentSeries(
                {n: a * 2.0 ** e for n, a in phi.coeffs.items()}), path)
            outputs.append(run(capsys, [command, "--symbol", str(path),
                                        *SYMBOL_FAST[command]]))
        (code0, out0, err0), (code, out, err) = outputs
        assert code0 == 0
        assert (code, err) == (code0, err0)
        lines0, lines = out0.splitlines(), out.splitlines()
        assert len(lines) == len(lines0)
        polynomial = False
        for line0, line in zip(lines0, lines):
            name, _, value = line0.partition(": ")
            if not line0.startswith(" "):
                polynomial = line0 == "optimizer_polynomial:"
            if name in _SCALED_FIELDS:
                assert line == f"{name}: {float(value) * 2.0 ** k!r}"
            elif line0.startswith("  ") and not line0.startswith("  #") and polynomial:
                n, *comps = line0.split()
                assert line.split() == [n, *(repr(float(c) * 2.0 ** k) for c in comps)]
            else:
                assert line == line0

    def test_flushing_symbol_is_usage_error(self, tmp_path, capsys):
        # scaled to its largest coefficient, the 1e-30 at n = -500 would
        # flush to zero: refused, not dropped
        path = tmp_path / "range.txt"
        save_series(SliceLaurentSeries(
            {-1: Quaternion(1e300), -500: Quaternion(1e-30)}), path)
        for command in ("norm", "distance"):
            code, out, err = run(capsys, [command, "--symbol", str(path),
                                          *SYMBOL_FAST[command]])
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "1e-30" in err
            assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, depth", [("norm", 2), ("norm", 3), ("distance", 3)])
    def test_result_above_the_double_range_is_usage_error(self, tmp_path, capsys,
                                                          command, depth):
        # 1e308 at n = -1 .. -depth: the sup, and at depth 3 the Hankel norm
        # too, lie above the largest double; refused, never printed as inf
        path = tmp_path / "huge.txt"
        save_series(SliceLaurentSeries(
            {-n: Quaternion(1e308) for n in range(1, depth + 1)}), path)
        code, out, err = run(capsys, [command, "--symbol", str(path),
                                      *SYMBOL_FAST[command]])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "above the double range" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["norm", "distance"])
    def test_exponent_beyond_range_is_usage_error(self, tmp_path, capsys, command):
        # past int64, and past the 2^62 the series refuses, not a traceback
        path = tmp_path / "far.txt"
        path.write_text("100000000000000000000000000000 1.0 0 0 0\n")
        code, out, err = run(capsys, [command, "--symbol", str(path),
                                      *SYMBOL_FAST[command]])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "100000000000000000000000000000" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_duplicate_exponent_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "twice.txt"
        path.write_text("-1 1.0 0 0 0\n-1 5.0 0 0 0\n")
        code, out, err = run(capsys, ["norm", "--symbol", str(path), *GRID])
        assert code == 2
        assert out == ""
        assert err == "error: record at line 2: duplicate exponent -1\n"

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert (cfg.seed, cfg.truncation_N, cfg.grid) == (0, 64, 4096)
        assert (cfg.degree, cfg.budget, cfg.trials) == (6, 20000, 10)


# the value flags each command reads, besides --out and --config
READS = {
    "verify": {"--seed", "--grid", "--degree", "--budget", "--trials"},
    "distance": {"--grid", "--degree", "--budget"},
    "norm": {"--grid"},
    "hilbert": {"--n"},
    "demo": {"--grid", "--degree", "--budget"},
}
DESTS = {"--seed": "seed", "--n": "truncation_N", "--grid": "grid",
         "--degree": "degree", "--budget": "budget", "--trials": "trials"}


class TestCommandTable:
    @pytest.mark.parametrize("command", sorted(READS))
    @pytest.mark.parametrize("flag", sorted(DESTS))
    def test_command_takes_only_the_flags_it_reads(self, capsys, command, flag):
        symbol = (["--symbol", str(GOLDEN / "depth3.txt")]
                  if command in ("distance", "norm") else [])
        argv = [command, *symbol, flag, "7"]
        if flag in READS[command]:
            args = cli._build_parser().parse_args(argv)
            assert getattr(args, DESTS[flag]) == 7
        else:
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out == ""
            assert f"unrecognized arguments: {flag} 7" in err
            assert "Traceback" not in err

    def test_config_file_may_set_fields_a_command_does_not_read(self, tmp_path, capsys):
        # one file serves every command: distance leaves truncation_N,
        # seed and trials unread
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3, "truncation_N": 16, "grid": 256,
            "degree": 2, "budget": 300, "trials": 5,
        }))
        code, out, err = run(capsys, ["distance", "--symbol", str(GOLDEN / "depth3.txt"),
                                      "--config", str(cfg)])
        assert code == 0 and err == ""
        assert "\ngrid: 256\n" in out


class TestDistanceAndNorm:
    def test_rank_one_distance_report(self, tmp_path, capsys):
        path = tmp_path / "symbol.txt"
        save_series(SliceLaurentSeries({-1: Quaternion(1.0)}), path)
        code, out, _ = run(
            capsys, ["distance", "--symbol", str(path), *FAST]
        )
        assert code == 0
        values = {}
        for line in out.splitlines():
            if ":" in line and not line.startswith(" "):
                key, _, val = line.partition(":")
                values[key.strip()] = val.strip()
        assert float(values["hankel_norm"]) == pytest.approx(1.0, abs=1e-12)
        assert float(values["constructive_distance"]) == pytest.approx(1.0, abs=1e-6)
        assert values["constructive_zeros_in_disc"] == "0"
        assert values["constructive_status"] == "ok"

    def test_report_shows_solver_state(self, tmp_path, capsys):
        path = tmp_path / "symbol.txt"
        save_series(SliceLaurentSeries({-2: Quaternion(1.0, 0.5, 0, 0),
                                        -1: Quaternion(0, 0, 1.0, 0)}), path)
        code, out, err = run(capsys, ["distance", "--symbol", str(path), *FAST])
        assert code == 0 and err == ""
        values = dict(line.split(": ", 1) for line in out.splitlines()
                      if ": " in line and not line.startswith(" "))
        assert values["optimizer_status"] == "converged"
        assert 1 <= int(values["optimizer_evaluations"]) <= 300
        assert (0.0 < float(values["optimizer_lower_bound"])
                <= float(values["optimized_distance"]))
        assert values["constructive_status"] == "ok"
        assert float(values["excluded_fraction"]) == 0.0

    def test_budget_exhausted_warns(self, tmp_path, capsys):
        path = tmp_path / "symbol.txt"
        save_series(SliceLaurentSeries({-2: Quaternion(1.0, 0.5, 0, 0),
                                        -1: Quaternion(0, 0, 1.0, 0)}), path)
        argv = ["distance", "--symbol", str(path), *FAST, "--budget", "5"]
        code, out, err = run(capsys, argv)
        assert code == 0
        assert "optimizer_status: budget_exhausted" in out
        assert "optimizer_evaluations: 5" in out
        assert err.startswith("warning: ") and err.count("\n") == 1

    def test_working_set_bound_warns(self, capsys, monkeypatch):
        # a bound of one 129-point set at degree 2 stops the solve at its
        # first exchange, long before --budget
        monkeypatch.setattr(nehari, "_WS_ENTRIES", 72 * 129)
        argv = ["distance", "--symbol", str(GOLDEN / "depth3.txt"),
                "--grid", "4096", "--degree", "2"]
        code, out, err = run(capsys, argv)
        assert code == 0
        assert "optimizer_status: budget_exhausted" in out
        spent = int(out.split("optimizer_evaluations: ")[1].split()[0])
        assert spent < 20000
        assert err == (f"warning: optimizer unconverged after {spent} of its "
                       f"20000 evaluations\n")

    def test_rational_symbol_at_the_depth_cap(self, tmp_path, capsys):
        # phi_hat(-n) = lam^(n-1) c, n = 1 .. 1020, is rank one with
        # ||H_phi|| = |c| / (1 - |lam|^2) up to a tail of |lam|^2040 ~ 1e-38
        rng = np.random.default_rng(32)
        v = rng.normal(size=4)
        lam, c = Quaternion(*(0.958 * v / np.linalg.norm(v))), Quaternion(*rng.normal(size=4))
        coeffs, a = {}, c
        for n in range(1, 1021):
            coeffs[-n], a = a, lam * a
        phi = SliceLaurentSeries(coeffs)
        path = tmp_path / "rational.txt"
        save_series(phi, path)
        oracle = abs(c) / (1.0 - abs(lam) ** 2)
        code, out, _ = run(capsys, ["distance", "--symbol", str(path), "--grid", "8192"])
        assert code == 0
        head, _, blocks = out.partition("maximizing_vector:\n")
        g = loads_series(blocks.partition("optimizer_polynomial:\n")[0])
        values = dict(line.split(": ", 1) for line in head.splitlines())
        assert abs(float(values["hankel_norm"]) - oracle) <= 1e-14 * oracle
        assert abs(float(values["constructive_distance"]) - oracle) <= 1e-12 * oracle
        # phi - N / g^s from the printed g, N = P_+(phi * g) * g^c, sampled
        # as pairs over the samples of the real g^s = g * g^c
        num = star_mul(project_plus(star_mul(phi, g)), conj_c(g))
        res = _plus_samples(phi, 2**18)
        res -= _plus_samples(num, 2**18) / _plus_samples(symmetrize(g), 2**18)[0]
        assert abs(float(np.max(_sup_values(_half_samples(res)))) - oracle) <= 1e-11 * oracle

    def test_report_states_hankel_block(self, tmp_path, capsys):
        # the block read is the symbol's depth, 1 for an analytic symbol
        analytic = tmp_path / "analytic.txt"
        save_series(SliceLaurentSeries({0: Quaternion(1.0)}), analytic)
        for path, block in ((GOLDEN / "depth3.txt", "3"), (analytic, "1")):
            code, out, _ = run(capsys, ["distance", "--symbol", str(path), *FAST])
            assert code == 0
            assert f"\nhankel_block: {block}\n" in out

    @pytest.mark.parametrize("name", ["depth3.txt", "rank_one.txt", "deep128.txt"])
    def test_report_prints_maximizing_vector(self, capsys, name):
        # the block is the g of maximizing_vector, which fixes the
        # constructive competitor; the optimizer's polynomial follows it
        code, out, _ = run(capsys, ["distance", "--symbol", str(GOLDEN / name),
                                    "--grid", "1024", "--degree", "2", "--budget", "300"])
        assert code == 0
        block = out.partition("maximizing_vector:\n")[2].partition("optimizer_polynomial:\n")[0]
        want = dumps_series(nehari.maximizing_vector(load_series(GOLDEN / name)))
        assert block == "".join("  " + line + "\n" for line in want.splitlines())

    @pytest.mark.parametrize("a", [1e-200, 1e-300])
    def test_tiny_principal_part_distance_not_below_hankel_norm(self, tmp_path, capsys, a):
        # phi = 1 + a q^-1: the optimizer's start, phi's analytic part, leaves
        # a residual whose squares underflow at phi's scale; it is read at
        # its own, so the optimized distance is a's sup, not 0
        path = tmp_path / "tiny.txt"
        save_series(SliceLaurentSeries({-1: Quaternion(a), 0: Quaternion(1.0)}), path)
        code, out, _ = run(capsys, ["distance", "--symbol", str(path)])
        values = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        assert code == 0
        assert float(values["optimized_distance"]) >= float(values["hankel_norm"]) > 0.0
        assert values["optimizer_status"] == "converged"

    def test_analytic_symbol(self, tmp_path, capsys):
        path = tmp_path / "symbol.txt"
        save_series(SliceLaurentSeries({2: Quaternion(0, 1, 0, 0)}), path)
        code, out, _ = run(capsys, ["distance", "--symbol", str(path), *FAST])
        assert code == 0
        assert "hankel_norm: 0.0" in out

    def test_parse_failure_names_record(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.0 0.0 0.0 0.0\n1 nope 0 0 0\n")
        code, _, err = run(capsys, ["distance", "--symbol", str(path), *FAST])
        assert code == 2
        assert "line 2" in err

    def test_missing_symbol_flag_is_usage_error(self, capsys):
        assert main(["distance"]) == 2

    def test_norm_command(self, tmp_path, capsys):
        path = tmp_path / "symbol.txt"
        save_series(SliceLaurentSeries({-1: Quaternion(2.0)}), path)
        code, out, _ = run(capsys, ["norm", "--symbol", str(path), *GRID])
        assert code == 0
        assert "hankel_norm: 2.0" in out
        assert "linf_norm: 2.0" in out


    def test_norm_on_the_largest_grid(self, tmp_path, capsys):
        # a 6000-term symbol at --grid 2^20: a dense grid x support phase
        # matrix would need 47 GiB
        rng = np.random.default_rng(31)
        path = tmp_path / "wide.txt"
        save_series(SliceLaurentSeries(
            {n: Quaternion(*rng.normal(size=4)) for n in range(6000)}), path)
        code, out, err = run(capsys, ["norm", "--symbol", str(path),
                                      "--grid", str(2**20)])
        assert code == 0 and err == ""
        assert out.startswith("hankel_norm: 0.0\nlinf_norm: ")


class TestHilbertAndDemo:
    def test_hilbert_table(self, capsys):
        code, out, _ = run(capsys, ["hilbert", "--n", "8"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,norm"
        table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert table[1] == 1.0
        assert table[2] == pytest.approx((4 + math.sqrt(13)) / 6, abs=1e-10)
        norms = [table[n] for n in sorted(table)]
        assert norms == sorted(norms)
        assert all(v < math.pi for v in norms)

    def test_hilbert_beyond_dense_memory(self, capsys):
        # N = 4096 runs matrix-free: a dense 8192 x 8192 complex embedding
        # alone would take 1 GB
        code, out, err = run(capsys, ["hilbert", "--n", "4096"])
        assert code == 0 and err == ""
        table = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(table["2048"]) < float(table["4096"]) < math.pi

    def test_demo(self, capsys):
        code, out, _ = run(capsys, ["demo", *FAST])
        assert code == 0
        assert "hankel_norm: 1.0" in out
        assert "rank-one" in out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("module", ["slicehankel", "slicehankel.cli"])
    def test_python_m_entry_point(self, capsys, module):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", module, "demo", *FAST],
            capture_output=True, text=True, env=env, cwd=root, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("# rank-one worked example\n")
        assert proc.stdout == run(capsys, ["demo", *FAST])[1]

    def test_distance_leaves_numpy_ma_unimported(self):
        # the optimizer's exchange merges its disjoint index sets without
        # np.union1d, whose np.unique imports numpy.ma (about 17 ms) on the
        # first exchange of a process
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        script = ("import sys; from slicehankel.cli import main; "
                  "code = main(['distance', '--symbol', sys.argv[1]]); "
                  "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(GOLDEN / "depth3.txt")],
            capture_output=True, text=True, env=env, cwd=root, timeout=120,
        )
        assert proc.stderr == "0 False\n"
        assert "optimizer_evaluations: 197" in proc.stdout

    def test_output_file(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["hilbert", "--n", "4", "--out", str(out)]) == 0
        assert out.read_text().startswith("N,norm")


def test_package_exports_every_module_name():
    import slicehankel
    from slicehankel import hankel, nehari, quat, series

    for module in (quat, series, hankel, nehari):
        for name in module.__all__:
            assert name in slicehankel.__all__
            assert getattr(slicehankel, name) is getattr(module, name)

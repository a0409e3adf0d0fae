import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slicehankel import cli
from slicehankel.cli import ExperimentConfig, main
from slicehankel.quat import Quaternion
from slicehankel.series import SliceLaurentSeries, save_series

FAST = ["--n", "16", "--grid", "256", "--degree", "2", "--budget", "300"]


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
        (["distance", "--symbol", "missing.txt", "--degree", "256", "--grid",
          "1048576", "--budget", "100"], "8388608"),
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

    def test_deep_symbol_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the depth cap must fire before any Hankel block is built
        def unreachable(*args):
            raise AssertionError("depth cap checked too late")

        monkeypatch.setattr(cli, "hankel_norm", unreachable)
        monkeypatch.setattr(cli, "approximation_report", unreachable)
        path = tmp_path / "deep.txt"
        save_series(SliceLaurentSeries({-1025: Quaternion(1.0)}), path)
        for command in ("norm", "distance"):
            code, out, err = run(capsys, [command, "--symbol", str(path), "--n", "2058"])
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "1025" in err and "1024" in err
            assert err.count("\n") == 1

    def test_huge_coefficient_is_usage_error(self, tmp_path, capsys):
        # refused up front: near 1e77 the optimizer's s^4-sized terms overflow
        for size in (1e80, 1e300):
            path = tmp_path / "huge.txt"
            phi = SliceLaurentSeries({-1: Quaternion(1.0), -2: Quaternion(0, size, 0, 0)})
            save_series(phi, path)
            for command in ("norm", "distance"):
                code, out, err = run(capsys, [command, "--symbol", str(path), *FAST])
                assert code == 2
                assert out == ""
                assert err.startswith("error: ") and "n = -2" in err and "1e+60" in err
                assert err.count("\n") == 1

    def test_coefficient_at_the_cap_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        save_series(SliceLaurentSeries({-1: Quaternion(cli.MAX_COEFF)}), path)
        code, out, _ = run(capsys, ["distance", "--symbol", str(path), *FAST])
        assert code == 0
        assert "optimizer_status: converged" in out and "inf" not in out

    def test_duplicate_exponent_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "twice.txt"
        path.write_text("-1 1.0 0 0 0\n-1 5.0 0 0 0\n")
        code, out, err = run(capsys, ["norm", "--symbol", str(path), *FAST])
        assert code == 2
        assert out == ""
        assert err == "error: record at line 2: duplicate exponent -1\n"

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert (cfg.seed, cfg.truncation_N, cfg.grid) == (0, 64, 4096)
        assert (cfg.degree, cfg.budget, cfg.trials) == (6, 20000, 10)


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
        assert float(values["residual_negative_mass"]) <= 1e-9

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
        code, out, _ = run(capsys, ["norm", "--symbol", str(path), *FAST])
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

"""Reproducible experiment runner.

One table, ``COMMANDS``, gives each subcommand (verify, distance, norm,
hilbert, demo) its function, its help and the ExperimentConfig fields it
reads.  A command takes a flag for each of those fields, --out and --config,
and distance and norm also --symbol; any other flag is a usage error.  Output
is plain text/CSV with repr-formatted floats, so a fixed (config, input) pair
reproduces byte-identical bytes.

Exit codes: 0 pass, 1 check failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import arrays
from .hankel import (
    apply_H,
    commutation_residual,
    complex_embed,
    operator_norm,
    HankelMatrix,
    QuaternionMatrix,
)
from .nehari import (
    approximation_report,
    hankel_norm,
    maximizing_vector,
    verify_nehari_bounds,
)
from .quat import Quaternion
from .series import (
    SliceLaurentSeries,
    conj_c,
    dumps_series,
    l2_norm,
    linf_norm,
    load_series,
    star_mul,
)

__all__ = ["ExperimentConfig", "main"]

# size caps checked before anything is allocated: the sampling grid sizes
# every boundary array, --n the Hilbert matrices, --degree the optimizer's
# Hessian and a symbol's depth -n_min its Hankel block.  At degree 256 and
# grid 2^20, distance on tests/golden/depth3.txt took 2.9-4.0 s and 240 MB
# peak RSS, on a working set of 343 points.  Above 96 a Hankel norm needs O(N)
# memory (FFT Lanczos): maximizing_vector at depth 1024 took 0.06 s and
# 40 MB, and hilbert --n 65536 1.1-1.3 s and 124 MB (one BLAS thread, 2
# vCPUs).  Coefficient sizes need no cap: every routine runs on the symbol
# scaled by a power of two to a largest component in [1, 2) and scales back.
MAX_GRID = 2**20
MAX_HILBERT_N = 65536
MAX_DEGREE = 256
MAX_DEPTH = 1024


@dataclass
class ExperimentConfig:
    seed: int = 0
    truncation_N: int = 64
    grid: int = 4096
    degree: int = 6
    budget: int = 20000
    trials: int = 10
    output_path: str | None = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "output_path":
                ok = value is None or isinstance(value, str)
            else:
                ok = isinstance(value, int) and not isinstance(value, bool)
            if not ok:
                raise ValueError(
                    f"config field {f.name!r} has type {type(value).__name__}"
                )
        if self.truncation_N < 1 or self.grid < 16 or self.degree < 0:
            raise ValueError("sizes must be positive")
        if self.grid > MAX_GRID:
            raise ValueError(f"grid {self.grid} above the limit {MAX_GRID}")
        if self.degree > MAX_DEGREE:
            raise ValueError(f"degree {self.degree} above the limit {MAX_DEGREE}")
        if self.budget < 1 or self.trials < 0:
            raise ValueError("budget must be positive and trials nonnegative")


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    bad = set(raw) - known
    if bad:
        raise ValueError(f"unknown config keys: {sorted(bad)}")
    return ExperimentConfig(**raw)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify suite
# ---------------------------------------------------------------------------


def _random_series(rng, lo: int, hi: int, scale: float = 1.0) -> SliceLaurentSeries:
    coeffs = {}
    for n in range(lo, hi + 1):
        if rng.random() < 0.8:
            coeffs[n] = Quaternion(*(scale * rng.normal(size=4)))
    if not coeffs:
        coeffs[lo] = Quaternion(*(scale * rng.normal(size=4)))
    return SliceLaurentSeries(coeffs)


def _verify_rows(config: ExperimentConfig) -> list[tuple]:
    rows = []
    for trial in range(config.trials):
        seed = config.seed + trial
        rng = np.random.default_rng(seed)

        f = _random_series(rng, -4, 4)
        g = _random_series(rng, -4, 4)
        diff = conj_c(star_mul(f, g)) - star_mul(conj_c(g), conj_c(f))
        err = float(np.max(arrays.norm(diff.rows), initial=0.0))
        rows.append(("algebra", "conjugation_antihomomorphism", seed, err, 1e-12))

        sym_imag = float(np.max(arrays.norm(star_mul(f, conj_c(f)).rows[:, 1:]), initial=0.0))
        rows.append(("algebra", "symmetrization_real", seed, sym_imag, 1e-12))

        rows.append(
            ("norms", "l2_conjugation_invariance", seed,
             abs(l2_norm(f) - l2_norm(conj_c(f))), 0.0)
        )
        lf = linf_norm(f, config.grid)
        lfc = linf_norm(conj_c(f), config.grid)
        rows.append(
            ("norms", "linf_conjugation_invariance", seed,
             abs(lf - lfc) / max(lf, 1e-300), 1e-9)
        )

        # column k holds coefficients -1..-16 of H_phi z^k for the symbol of
        # alpha, so the residual checks P_- S H_phi = H_phi T on the action
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(5)]
        phi_alpha = SliceLaurentSeries({-1 - m: a for m, a in enumerate(alpha)})
        columns = [apply_H(phi_alpha, SliceLaurentSeries({k: Quaternion(1.0)}))
                   for k in range(16)]
        mat = QuaternionMatrix([[h.coefficient(-1 - j).components() for h in columns]
                                for j in range(16)])
        rows.append(("hankel", "commutation_residual", seed,
                     commutation_residual(mat), 1e-14))

        a = QuaternionMatrix(rng.normal(size=(4, 4, 4)))
        b = QuaternionMatrix(rng.normal(size=(4, 4, 4)))
        mult_err = float(np.max(np.abs(
            complex_embed(a.matmul(b)) - complex_embed(a) @ complex_embed(b)
        )))
        rows.append(("hankel", "embedding_multiplicativity", seed, mult_err, 1e-12))

        phi = _random_series(rng, -3, 3)
        if phi.n_min >= 0:
            phi = phi + SliceLaurentSeries({-1: Quaternion(*rng.normal(size=4))})
        hn = hankel_norm(phi)
        rows.append(
            ("nehari", "norm_below_symbol_sup", seed, hn,
             linf_norm(phi, config.grid) * (1.0 + 1e-9))
        )
        gmax = maximizing_vector(phi)
        achieved = l2_norm(apply_H(phi, gmax))
        rows.append(("nehari", "maximizer_attains_norm", seed, hn,
                     achieved * (1.0 + 1e-8)))

        alpha3 = [Quaternion(*rng.normal(size=4)) for _ in range(3)]
        rep = verify_nehari_bounds(alpha3, config.degree, config.grid, config.budget)
        rows += [("nehari", check, seed, measured, bound)
                 for check, measured, bound in rep.sandwich()]
    return rows


def cmd_verify(config: ExperimentConfig) -> int:
    rows = _verify_rows(config)
    lines = ["suite,check,seed,measured,bound,pass"]
    all_ok = True
    for suite, check, seed, measured, bound in rows:
        ok = measured <= bound
        all_ok = all_ok and ok
        lines.append(
            f"{suite},{check},{seed},{measured!r},{bound!r},"
            f"{'pass' if ok else 'fail'}"
        )
    _emit("\n".join(lines) + "\n", config.output_path)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# symbol-file commands
# ---------------------------------------------------------------------------


def _load_symbol(path: str) -> SliceLaurentSeries:
    phi = load_series(path)
    if -phi.n_min > MAX_DEPTH:
        raise ValueError(f"symbol depth {-phi.n_min} above the limit {MAX_DEPTH}")
    return phi


def cmd_distance(config: ExperimentConfig, symbol_path: str) -> int:
    phi = _load_symbol(symbol_path)
    report = approximation_report(phi, config.grid, config.degree, config.budget)
    _emit(report.to_text(), config.output_path)
    if report.optimizer_status == "budget_exhausted":
        print(f"warning: optimizer unconverged after "
              f"{report.optimizer_evaluations} of its {config.budget} "
              f"evaluations", file=sys.stderr)
    return 0 if report.check() else 1


def cmd_norm(config: ExperimentConfig, symbol_path: str) -> int:
    phi = _load_symbol(symbol_path)
    hn = hankel_norm(phi)
    sup = linf_norm(phi, config.grid)
    _emit(f"hankel_norm: {hn!r}\nlinf_norm: {sup!r}\n", config.output_path)
    return 0


def cmd_hilbert(config: ExperimentConfig) -> int:
    if config.truncation_N > MAX_HILBERT_N:
        raise ValueError(
            f"--n {config.truncation_N} above the hilbert limit {MAX_HILBERT_N}"
        )
    lines, norms = ["N,norm"], []
    for size in (2**e for e in range(config.truncation_N.bit_length())):
        antidiagonal = np.zeros((2 * size - 1, 4))
        antidiagonal[:, 0] = 1.0 / np.arange(1, 2 * size)
        norms.append(operator_norm(HankelMatrix(antidiagonal)))
        lines.append(f"{size},{norms[-1]!r}")
    _emit("\n".join(lines) + "\n", config.output_path)
    ok = all(v < math.pi for v in norms) and norms == sorted(norms)
    return 0 if ok else 1


def cmd_demo(config: ExperimentConfig) -> int:
    c = Quaternion(0.6, 0.0, 0.8, 0.0)
    phi = SliceLaurentSeries({-1: c})
    rep = approximation_report(phi, config.grid, config.degree, config.budget)
    lines = [
        "# rank-one worked example",
        "# symbol: single negative coefficient at n = -1 with |c| = 1",
        "symbol:",
    ]
    lines += ["  " + ln for ln in dumps_series(phi).splitlines()]
    lines += [
        "# the Hankel matrix has a single nonzero entry, so its norm is |c|",
        f"hankel_norm: {rep.hankel_norm!r}",
        "# the maximizing vector is the constant 1 up to a right unit factor",
        "maximizing_vector:",
    ]
    lines += ["  " + ln for ln in dumps_series(rep.maximizing_vector).splitlines()]
    lines += [
        "# best analytic approximation is 0; the distance equals |c|",
        f"constructive_distance: {rep.constructive_distance!r}",
        f"optimized_distance: {rep.optimized_distance!r}",
        f"constructive_zeros_in_disc: {rep.constructive_zeros_in_disc!r}",
    ]
    _emit("\n".join(lines) + "\n", config.output_path)
    ok = (abs(rep.hankel_norm - 1.0) <= 1e-10
          and abs(rep.constructive_distance - 1.0) <= 1e-6)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


# each command's function, its help, the ExperimentConfig fields it reads
# (one flag each) and whether it reads a --symbol file; every command also
# takes --out and --config, and no other flag
COMMANDS = {
    "verify": (cmd_verify, "run the property suites over random instances",
               ("seed", "grid", "degree", "budget", "trials"), False),
    "distance": (cmd_distance, "approximation report for a stored symbol",
                 ("grid", "degree", "budget"), True),
    "norm": (cmd_norm, "Hankel and sup norm of a stored symbol", ("grid",), True),
    "hilbert": (cmd_hilbert, "truncated Hilbert-matrix norm table",
                ("truncation_N",), False),
    "demo": (cmd_demo, "rank-one worked example", ("grid", "degree", "budget"), False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicehankel",
        description="Quaternionic Hankel-operator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, reads, symbol) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if symbol:
            p.add_argument("--symbol", required=True)
        for field in reads:
            flag = "--n" if field == "truncation_N" else f"--{field}"
            p.add_argument(flag, type=int, dest=field)
        p.add_argument("--out", dest="output_path")
        p.add_argument("--config", help="JSON config file (flags override)")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    config = _load_config(args.config) if args.config else ExperimentConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(ExperimentConfig)
        if getattr(args, f.name, None) is not None
    }
    config = replace(config, **overrides)
    config.validate()
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run, _, _, symbol = COMMANDS[args.command]
    try:
        config = _resolve_config(args)
        if symbol:
            return run(config, args.symbol)
        return run(config)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

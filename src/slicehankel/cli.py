"""Reproducible experiment runner.

Subcommands: verify (property suites over random instances, CSV), distance
(approximation report for a stored symbol), norm (Hankel and sup norm of a
stored symbol), hilbert (truncated Hilbert-matrix norm table), demo (rank-one
worked example).  Output is plain text/CSV with repr-formatted floats, so a
fixed (config, input) pair reproduces byte-identical bytes.

Exit codes: 0 pass, 1 check failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

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
# every boundary array, --n the Hilbert matrices and a symbol's depth -n_min
# its Hankel block.  At the product cap the optimizer peaked at 84 MB RSS
# (degree 255, grid 2^15) and 376 MB (degree 7, grid 2^20); the reference is
# degree 6, grid 8192.  Above 96 a Hankel norm needs O(N) memory (FFT
# Lanczos): maximizing_vector at depth 1024 took 0.06 s and 40 MB peak RSS,
# and hilbert --n 65536 1.1-1.3 s and 124 MB (one BLAS thread, 2 vCPUs).
# The coefficient cap keeps the optimizer's s^4-sized barrier terms finite:
# distance overflowed at coefficients of size 1e80, not yet at 1e76.
MAX_GRID = 2**20
MAX_HILBERT_N = 65536
MAX_DEGREE = 256
MAX_DEGREE_GRID = 2**23
MAX_DEPTH = 1024
MAX_COEFF = 1e60


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
        if (self.degree + 1) * self.grid > MAX_DEGREE_GRID:
            raise ValueError(
                f"(degree + 1) * grid = {(self.degree + 1) * self.grid} above "
                f"the limit {MAX_DEGREE_GRID}"
            )
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


def _max_coeff_dist(f: SliceLaurentSeries, g: SliceLaurentSeries) -> float:
    keys = set(f.coeffs) | set(g.coeffs)
    return max((abs(f.coefficient(n) - g.coefficient(n)) for n in keys), default=0.0)


def _verify_rows(config: ExperimentConfig) -> list[tuple]:
    rows = []
    for trial in range(config.trials):
        seed = config.seed + trial
        rng = np.random.default_rng(seed)

        f = _random_series(rng, -4, 4)
        g = _random_series(rng, -4, 4)
        err = _max_coeff_dist(conj_c(star_mul(f, g)), star_mul(conj_c(g), conj_c(f)))
        rows.append(("algebra", "conjugation_antihomomorphism", seed, err, 1e-12))

        sym_imag = max(
            (c.imag_norm() for c in star_mul(f, conj_c(f)).coeffs.values()),
            default=0.0,
        )
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
        hn = hankel_norm(phi, config.truncation_N)
        rows.append(
            ("nehari", "norm_below_symbol_sup", seed, hn,
             linf_norm(phi, config.grid) * (1.0 + 1e-9))
        )
        gmax = maximizing_vector(phi, config.truncation_N)
        achieved = l2_norm(apply_H(phi, gmax))
        rows.append(("nehari", "maximizer_attains_norm", seed, hn,
                     achieved * (1.0 + 1e-8)))

        alpha3 = [Quaternion(*rng.normal(size=4)) for _ in range(3)]
        rep = verify_nehari_bounds(
            alpha3, config.truncation_N, config.degree, config.grid, config.budget,
        )
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
    for n, a in phi.coeffs.items():
        if abs(a) > MAX_COEFF:
            raise ValueError(f"symbol coefficient size {abs(a):.3g} at n = {n} "
                             f"above the limit {MAX_COEFF:g}")
    return phi


def cmd_distance(config: ExperimentConfig, symbol_path: str) -> int:
    phi = _load_symbol(symbol_path)
    report = approximation_report(
        phi, config.truncation_N, config.grid, config.degree, config.budget,
    )
    _emit(report.to_text(), config.output_path)
    if report.optimizer_status == "budget_exhausted":
        print(f"warning: optimizer unconverged after its budget of "
              f"{config.budget} evaluations", file=sys.stderr)
    return 0 if report.check() else 1


def cmd_norm(config: ExperimentConfig, symbol_path: str) -> int:
    phi = _load_symbol(symbol_path)
    hn = hankel_norm(phi, config.truncation_N)
    sup = linf_norm(phi, config.grid)
    _emit(f"hankel_norm: {hn!r}\nlinf_norm: {sup!r}\n", config.output_path)
    return 0


def cmd_hilbert(config: ExperimentConfig) -> int:
    if config.truncation_N > MAX_HILBERT_N:
        raise ValueError(
            f"--n {config.truncation_N} above the hilbert limit {MAX_HILBERT_N}"
        )
    sizes = []
    n = 1
    while n <= config.truncation_N:
        sizes.append(n)
        n *= 2
    lines = ["N,norm"]
    norms = []
    for size in sizes:
        antidiagonal = np.zeros((2 * size - 1, 4))
        antidiagonal[:, 0] = 1.0 / np.arange(1, 2 * size)
        norms.append(operator_norm(HankelMatrix(antidiagonal)))
        lines.append(f"{size},{norms[-1]!r}")
    _emit("\n".join(lines) + "\n", config.output_path)
    ok = all(v < math.pi for v in norms) and all(
        b >= a for a, b in zip(norms, norms[1:])
    )
    return 0 if ok else 1


def cmd_demo(config: ExperimentConfig) -> int:
    c = Quaternion(0.6, 0.0, 0.8, 0.0)
    phi = SliceLaurentSeries({-1: c})
    n = max(16, config.truncation_N)
    rep = approximation_report(phi, n, config.grid, config.degree,
                               min(config.budget, 5000))
    g = maximizing_vector(phi, n)
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
    lines += ["  " + ln for ln in dumps_series(g).splitlines()]
    lines += [
        "# best analytic approximation is 0; the distance equals |c|",
        f"constructive_distance: {rep.constructive_distance!r}",
        f"optimized_distance: {rep.optimized_distance!r}",
        f"residual_negative_mass: {rep.residual_negative_mass!r}",
    ]
    _emit("\n".join(lines) + "\n", config.output_path)
    ok = (abs(rep.hankel_norm - 1.0) <= 1e-10
          and abs(rep.constructive_distance - 1.0) <= 1e-6)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--n", type=int, dest="truncation_N",
                        help="Hankel truncation size")
    shared.add_argument("--grid", type=int)
    shared.add_argument("--degree", type=int)
    shared.add_argument("--budget", type=int)
    shared.add_argument("--trials", type=int)
    shared.add_argument("--out", dest="output_path")
    shared.add_argument("--config", help="JSON config file (flags override)")

    parser = argparse.ArgumentParser(
        prog="slicehankel",
        description="Quaternionic Hankel-operator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[shared],
                   help="run the property suites over random instances")
    p = sub.add_parser("distance", parents=[shared],
                       help="approximation report for a stored symbol")
    p.add_argument("--symbol", required=True)
    p = sub.add_parser("norm", parents=[shared],
                       help="Hankel and sup norm of a stored symbol")
    p.add_argument("--symbol", required=True)
    sub.add_parser("hilbert", parents=[shared],
                   help="truncated Hilbert-matrix norm table")
    sub.add_parser("demo", parents=[shared],
                   help="rank-one worked example")
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
    try:
        config = _resolve_config(args)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "distance":
            return cmd_distance(config, args.symbol)
        if args.command == "norm":
            return cmd_norm(config, args.symbol)
        if args.command == "hilbert":
            return cmd_hilbert(config)
        if args.command == "demo":
            return cmd_demo(config)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's workloads: inputs drawn from a seed, the timed calls into
the public functions of ``series``, ``hankel`` and ``nehari``, the correctness
gates, and the per-layer work counts.

Why these two workloads:

- ``nehari``: a certified distance report per random finite symbol, as the
  ``distance``/``verify`` commands produce it.  The pattern-search optimizer
  does almost all of the work; the Hankel SVD is 128x128 and negligible.
- ``hankel``: the Hilbert norm table and random deep symbols at N = 256/512.
  The dense 2N x 2N SVD and the Python matrix build do all of the work and
  the optimizer none, the mirror image of ``nehari``.

``quat`` and ``arrays`` have no entry point of their own here; they are
measured through ``series`` and ``nehari``, and ``series`` through the sup
norm of each nehari report and the series sampling inside the optimizer.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from slicehankel.hankel import apply_H, build_hankel_matrix, operator_norm
from slicehankel.nehari import (
    constructive_best_approx,
    hankel_norm,
    maximizing_vector,
    optimize_distance,
)
from slicehankel.quat import Quaternion
from slicehankel.series import SliceLaurentSeries, l2_norm, linf_norm

# nehari: the acceptance-criterion-5 configuration
NEHARI_N, NEHARI_GRID, NEHARI_DEGREE, NEHARI_BUDGET = 64, 8192, 6, 20000
NEHARI_TOL = 2e-2
# hankel: Hilbert table sizes 2^0..2^10 and random-symbol truncations
HILBERT_SIZES = tuple(2 ** k for k in range(11))
SYMBOL_SIZES = (256, 512)
MAX_DEPTH = 64

# Wall seconds per item (hankel: per group of five items) on a 2-core x86
# VM with one BLAS thread, toward the slow end of what that shared host gives
# (nehari 3-6 s, hankel 15-21 s).  They size the item list, so the list is
# fixed for a given --seconds and both sides of a comparison do the same
# work; at --seconds 45 that is 5 nehari symbols and one hankel group, each
# run in both passes.
REF_UNIT_S = {"nehari": 4.8, "hankel": 21.0}

# Passes per run.  Every pass runs all items, turned by its own unit
# quaternion on the right: an isometry, so norms, gates and the amount of work
# stay the same while no call sees an input twice (a cache cannot turn a
# repeat into a hit).  Per item the best of its passes is reported, as timeit
# does: a host slowdown of a few seconds then spoils one run of a multi-second
# item, not the item's figure.
REPEATS = 2


def units_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / (REPEATS * REF_UNIT_S[workload])))


def _quaternion(rng) -> Quaternion:
    return Quaternion(*rng.normal(size=4))


def _unit_quaternion(rng) -> Quaternion:
    v = rng.normal(size=4)
    return Quaternion(*(v / np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NehariItem:
    phi: SliceLaurentSeries
    opt_seed: int


@dataclass(frozen=True)
class HilbertItem:
    """The Hilbert norm table: one antidiagonal per truncation N."""

    alphas: tuple[tuple[Quaternion, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple((len(alpha) + 1) // 2 for alpha in self.alphas)


@dataclass(frozen=True)
class SymbolItem:
    phi: SliceLaurentSeries
    N: int
    kind: str


def nehari_items(rng, count: int) -> list[NehariItem]:
    """Criterion-5 symbols: negative depth 1-4, 0-2 analytic coefficients."""
    items = []
    for _ in range(count):
        coeffs = {-(m + 1): _quaternion(rng) for m in range(int(rng.integers(1, 5)))}
        for pos in range(int(rng.integers(0, 3))):
            coeffs[pos] = _quaternion(rng)
        items.append(NehariItem(SliceLaurentSeries(coeffs), int(rng.integers(2**31))))
    return items


def hankel_items(rng, groups: int) -> list:
    """Each group: the Hilbert table for N in HILBERT_SIZES, as the ``hilbert``
    command computes it, then one dense and one sparse symbol at each
    truncation in SYMBOL_SIZES.

    The Hilbert data 1/(m+1) is multiplied on the left by a unit quaternion
    drawn per group; that is an isometry, so the norm is the Hilbert norm, but
    no two groups hand the library identical inputs.
    """
    items: list = []
    for _ in range(groups):
        u = _unit_quaternion(rng)
        items.append(HilbertItem(tuple(
            tuple(u * (1.0 / (m + 1)) for m in range(2 * N - 1))
            for N in HILBERT_SIZES
        )))
        for N in SYMBOL_SIZES:
            for kind in ("dense", "sparse"):
                depth = int(rng.integers(1, MAX_DEPTH + 1))
                if kind == "dense":
                    support = range(1, depth + 1)
                else:
                    extra = rng.choice(np.arange(1, depth + 1), size=min(2, depth),
                                       replace=False)
                    support = {depth, *(int(m) for m in extra)}
                phi = SliceLaurentSeries({-m: _quaternion(rng) for m in support})
                items.append(SymbolItem(phi, N, kind))
    return items


def turned(item, u: Quaternion):
    """The item with every input coefficient multiplied on the right by the
    unit quaternion u."""
    if isinstance(item, HilbertItem):
        return HilbertItem(tuple(tuple(a * u for a in alpha) for alpha in item.alphas))
    return replace(item, phi=item.phi.times_right(u))


def input_digest(items) -> str:
    """sha256 over the exact reprs of the inputs (all reprs use float repr)."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# timed calls
# ---------------------------------------------------------------------------


def run_nehari(item: NehariItem, tr) -> dict:
    phi = item.phi
    with tr.span("nehari.hankel_norm"):
        hn = hankel_norm(phi, NEHARI_N)
    with tr.span("nehari.optimize_distance"):
        opt = optimize_distance(phi, NEHARI_DEGREE, NEHARI_GRID, NEHARI_BUDGET,
                                seed=item.opt_seed)
    with tr.span("nehari.maximizing_vector"):
        g = maximizing_vector(phi, NEHARI_N)
    with tr.span("nehari.constructive_best_approx"):
        cons = constructive_best_approx(phi, NEHARI_N, NEHARI_GRID, g=g)
    with tr.span("series.linf_norm"):
        sup = linf_norm(phi, NEHARI_GRID)
    return {
        "hn": hn, "iterates": opt.iterates, "opt": opt.distance,
        "opt_status": opt.status, "evaluations": opt.evaluations,
        "cons": cons.distance, "excluded": cons.excluded_fraction, "sup": sup,
    }


def run_hankel(item, tr) -> dict:
    if isinstance(item, HilbertItem):
        norms = []
        for alpha, N in zip(item.alphas, item.sizes):
            with tr.span("hankel.build_hankel_matrix"):
                m = build_hankel_matrix(alpha, N)
            with tr.span("hankel.operator_norm"):
                norms.append(operator_norm(m))
        return {"norms": norms}
    with tr.span("nehari.hankel_norm"):
        hn = hankel_norm(item.phi, item.N)
    with tr.span("nehari.maximizing_vector"):
        g = maximizing_vector(item.phi, item.N)
    return {"hn": hn, "g": g}


# ---------------------------------------------------------------------------
# correctness gates: item index -> failed checks.  Oracles run after timing.
# ---------------------------------------------------------------------------


def check_nehari(items, results) -> dict[int, list[str]]:
    bad = {}
    for i, (item, r) in enumerate(zip(items, results)):
        if r is None:
            continue
        msgs = []
        hn = r["hn"]
        below = [it for it in r["iterates"] if not hn <= it + 1e-6]
        if below:
            msgs.append(f"optimizer iterate {min(below)!r} below hankel norm {hn!r}")
        rel = abs(r["cons"] - hn) / hn if hn > 0 else math.inf
        if not rel <= NEHARI_TOL:
            msgs.append(f"|constructive - hankel norm| / hankel norm = {rel!r}")
        d = min(r["cons"], r["opt"])
        if not d * (1 - NEHARI_TOL) <= hn <= 2 * d * (1 + NEHARI_TOL):
            msgs.append(f"sandwich d <= hn <= 2d fails: d={d!r} hn={hn!r}")
        if msgs:
            bad[i] = msgs
    return bad


def exact_block_norm(phi: SliceLaurentSeries) -> float:
    """Norm of the k x k nonzero Hankel block of a depth-k symbol, from the
    SVD of its complex adjoint [[Z1, Z2], [-conj Z2, conj Z1]]."""
    k = -phi.n_min
    block = np.zeros((k, k, 4))
    for j in range(k):
        for l in range(k - j):
            block[j, l] = phi.coefficient(-1 - j - l).components()
    z1 = block[..., 0] + 1j * block[..., 1]
    z2 = block[..., 2] + 1j * block[..., 3]
    adj = np.block([[z1, z2], [-np.conj(z2), np.conj(z1)]])
    return float(np.linalg.svd(adj, compute_uv=False)[0])


def hilbert_norm(N: int) -> float:
    j = np.arange(N)
    return float(np.linalg.eigvalsh(1.0 / (j[:, None] + j[None, :] + 1.0))[-1])


def check_hankel(items, results) -> dict[int, list[str]]:
    bad = {}
    reference: dict[int, float] = {}
    for i, (item, r) in enumerate(zip(items, results)):
        if r is None:
            continue
        msgs = []
        if isinstance(item, HilbertItem):
            prev = -math.inf
            for N, nrm in zip(item.sizes, r["norms"]):
                if N not in reference:
                    reference[N] = hilbert_norm(N)
                if not nrm < math.pi:
                    msgs.append(f"Hilbert norm {nrm!r} not below pi at N={N}")
                if not abs(nrm - reference[N]) <= 1e-10:
                    msgs.append(f"Hilbert norm {nrm!r} vs eigvalsh {reference[N]!r} at N={N}")
                if not nrm >= prev:
                    msgs.append(f"Hilbert norm decreases at N={N}: {prev!r} -> {nrm!r}")
                prev = nrm
        else:
            hn = r["hn"]
            ref = exact_block_norm(item.phi)
            if not abs(hn - ref) <= 1e-10 * max(1.0, ref):
                msgs.append(f"hankel_norm {hn!r} vs exact block {ref!r} (N={item.N})")
            attained = l2_norm(apply_H(item.phi, r["g"]))
            if not abs(attained - hn) <= 1e-8 * max(1.0, hn):
                msgs.append(f"||H g|| = {attained!r} does not attain {hn!r}")
        if msgs:
            bad[i] = msgs
    return bad


# ---------------------------------------------------------------------------
# per-layer work counts, computed from the inputs and the results
# ---------------------------------------------------------------------------


def work_counts(items, results) -> dict[str, float]:
    c = {name: 0 for name in COUNTED}
    gaps, excluded, converged, attempted_opt = [], [], 0, 0
    for item, r in zip(items, results):
        if r is None:
            continue
        if isinstance(item, NehariItem):
            attempted_opt += 1
            c["nehari.optimize_distance.evaluations"] += r["evaluations"]
            converged += r["opt_status"] == "converged"
            gaps.append((r["opt"] - r["hn"]) / r["hn"])
            excluded.append(r["excluded"])
            c["series.linf_norm.samples"] += NEHARI_GRID
        elif isinstance(item, HilbertItem):
            for N in item.sizes:
                c["hankel.build_hankel_matrix.entries"] += N ** 2
                c["hankel.operator_norm.calls"] += 1
                c["hankel.operator_norm.embed_bytes"] += (2 * N) ** 2 * 16
    if attempted_opt:
        c["nehari.optimize_distance.converged_ratio"] = converged / attempted_opt
        c["nehari.optimize_distance.gap_rel_p50"] = statistics.median(gaps)
        c["nehari.optimize_distance.gap_rel_max"] = max(gaps)
        c["nehari.constructive_best_approx.excluded_fraction_max"] = max(excluded)
    return c


COUNTED = (
    "nehari.optimize_distance.evaluations",
    "nehari.optimize_distance.converged_ratio",
    "nehari.optimize_distance.gap_rel_p50",
    "nehari.optimize_distance.gap_rel_max",
    "nehari.constructive_best_approx.excluded_fraction_max",
    "hankel.operator_norm.calls",
    "hankel.operator_norm.embed_bytes",
    "hankel.build_hankel_matrix.entries",
    "series.linf_norm.samples",
)


def warm_up() -> None:
    """One tiny call into every entry point, so lazy initialisation inside
    numpy and the library happens during set-up and not in the first item."""
    phi = SliceLaurentSeries({-2: Quaternion(1.0, 0.5, 0.0, 0.0), 0: Quaternion(0.0, 0.0, 1.0, 0.0)})
    hankel_norm(phi, 16)
    optimize_distance(phi, 1, 64, 40)
    g = maximizing_vector(phi, 16)
    constructive_best_approx(phi, 16, 64, g=g)
    operator_norm(build_hankel_matrix(tuple(phi.coefficient(-1 - m) for m in range(3)), 2))
    linf_norm(phi, 64)


@dataclass(frozen=True)
class Workload:
    make_items: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    "nehari": Workload(nehari_items, run_nehari, check_nehari),
    "hankel": Workload(hankel_items, run_hankel, check_hankel),
}


def make_inputs(workload: str, seed: int, seconds: int) -> list:
    """REPEATS passes over the same units_for() items, each pass turned by its
    own unit quaternion; pass p is the slice [p * k, (p + 1) * k)."""
    rng = np.random.default_rng(seed)
    base = WORKLOADS[workload].make_items(rng, units_for(workload, seconds))
    items = []
    for _ in range(REPEATS):
        u = _unit_quaternion(rng)
        items.extend(turned(item, u) for item in base)
    return items

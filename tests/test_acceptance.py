"""Acceptance suite.

Each test covers one numbered criterion, prints a single [PASS]/[FAIL] line
with the measured extremes, and asserts the stated tolerance.  Runtime targets
are printed for information, not asserted.
"""

import math
import time

import numpy as np

from slicehankel import arrays
from slicehankel.hankel import (
    QuaternionMatrix,
    apply_H,
    build_hankel_matrix,
    commutation_residual,
    complex_embed,
    embed_vector,
    operator_norm,
)
from slicehankel.nehari import (
    constructive_best_approx,
    hankel_norm,
    maximizing_vector,
    optimize_distance,
)
from slicehankel.quat import BoundaryPoint, Quaternion, sample_sphere
from slicehankel.series import (
    SliceLaurentSeries,
    bmo_norm,
    conj_c,
    evaluate,
    l2_norm,
    linf_norm,
    project_minus,
    project_plus,
    sphere_sup,
    star_eval,
    star_mul,
)

from test_hankel import action_matrix
from test_series import linf_from_slice


def report(capsys, number: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {number}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {number}: {detail}"


def random_series(rng, lo, hi, mag=5.0, density=0.8):
    coeffs = {
        n: Quaternion(*rng.uniform(-mag, mag, size=4))
        for n in range(lo, hi + 1) if rng.random() < density
    }
    if not coeffs:
        coeffs[hi] = Quaternion(*rng.uniform(-mag, mag, size=4))
    return SliceLaurentSeries(coeffs)


def max_coeff_dist(f, g):
    keys = set(f.coeffs) | set(g.coeffs)
    return max((abs(f.coefficient(n) - g.coefficient(n)) for n in keys), default=0.0)


def test_criterion_1_algebra(capsys):
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_conj = worst_eval = worst_imag = 0.0
    for _ in range(500):
        f = random_series(rng, -8, 8, density=0.5)
        g = random_series(rng, -8, 8, density=0.5)
        worst_conj = max(
            worst_conj,
            max_coeff_dist(conj_c(star_mul(f, g)), star_mul(conj_c(g), conj_c(f))),
        )
        prod = star_mul(f, g)
        for _ in range(100):
            p = BoundaryPoint(sample_sphere(rng), float(rng.uniform(0, 2 * math.pi)))
            expected = evaluate(prod, p)
            got = star_eval(f, g, p)
            rel = abs(got - expected) / max(abs(expected), 1.0)
            worst_eval = max(worst_eval, rel)
        sym = star_mul(f, conj_c(f))
        worst_imag = max(
            worst_imag, max((c.imag_norm() for c in sym.coeffs.values()), default=0.0)
        )
    ok = worst_conj <= 1e-12 and worst_eval <= 1e-9 and worst_imag <= 1e-12
    report(
        capsys, 1, ok,
        f"conjugation {worst_conj:.2e}, pointwise star {worst_eval:.2e}, "
        f"symmetrization imag {worst_imag:.2e}",
        time.time() - t0,
    )


def test_criterion_2_norms(capsys):
    t0 = time.time()
    rng = np.random.default_rng(102)

    worst_l2 = worst_linf = worst_pyth = 0.0
    for _ in range(200):
        f = random_series(rng, -6, 6)
        worst_l2 = max(worst_l2, abs(l2_norm(f) - l2_norm(conj_c(f))))
        a = linf_norm(f, 2048)
        b = linf_norm(conj_c(f), 2048)
        worst_linf = max(worst_linf, abs(a - b) / max(a, 1e-300))
        total = l2_norm(f) ** 2
        split = l2_norm(project_plus(f)) ** 2 + l2_norm(project_minus(f)) ** 2
        worst_pyth = max(worst_pyth, abs(total - split) / max(total, 1.0))

    worst_sup = 0.0
    units = rng.normal(size=(10000, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    uq = np.concatenate([np.zeros((10000, 1)), units], axis=1)
    for _ in range(200):
        a = Quaternion(*rng.normal(size=4))
        b = Quaternion(*rng.normal(size=4))
        closed = sphere_sup(a, b)
        vals = arrays.norm(
            np.array(a.components()) + arrays.mul(uq, np.array(b.components()))
        )
        brute = float(np.max(vals))
        worst_sup = max(worst_sup, abs(closed - brute) / brute)

    worst_slice = 0.0
    for _ in range(4):
        f = random_series(rng, -4, 4)
        ref = linf_norm(f, 512)
        for _ in range(16):
            other = linf_from_slice(f, sample_sphere(rng), 512)
            worst_slice = max(worst_slice, abs(other - ref) / max(ref, 1e-300))

    ok = (
        worst_l2 == 0.0 and worst_linf <= 1e-9 and worst_sup <= 1e-3
        and worst_pyth <= 1e-14 and worst_slice <= 1e-9
    )
    report(
        capsys, 2, ok,
        f"l2 conj {worst_l2:.2e}, linf conj {worst_linf:.2e}, "
        f"sphere sup {worst_sup:.2e}, pythagoras {worst_pyth:.2e}, "
        f"slice independence {worst_slice:.2e}",
        time.time() - t0,
    )


def test_criterion_3_hankel_structure(capsys):
    t0 = time.time()
    rng = np.random.default_rng(103)
    n = 32

    worst_resid = 0.0
    for _ in range(100):
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(2 * n - 1)]
        worst_resid = max(worst_resid, commutation_residual(action_matrix(alpha, n)))

    corruption_ok = True
    for _ in range(25):
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(2 * n - 1)]
        m = build_hankel_matrix(alpha, n)
        while True:
            r, c = int(rng.integers(n)), int(rng.integers(n))
            if (r, c) not in ((0, 0), (n - 1, n - 1)):
                break
        delta = float(10.0 ** rng.uniform(-6, 0))
        data = m.data.copy()
        data[r, c, int(rng.integers(4))] += delta
        corruption_ok = corruption_ok and (
            commutation_residual(QuaternionMatrix(data)) > delta / 2
        )

    worst_embed = 0.0
    for _ in range(25):
        a = QuaternionMatrix(rng.normal(size=(6, 6, 4)))
        b = QuaternionMatrix(rng.normal(size=(6, 6, 4)))
        worst_embed = max(worst_embed, float(np.max(np.abs(
            complex_embed(a.matmul(b)) - complex_embed(a) @ complex_embed(b)
        ))))
        v = rng.normal(size=(6, 4))
        worst_embed = max(worst_embed, abs(
            float(np.linalg.norm(embed_vector(v))) - float(np.linalg.norm(v))
        ))

    monotone_ok = True
    for _ in range(10):
        alpha = [Quaternion(*rng.normal(size=4)) for _ in range(127)]
        norms = [operator_norm(build_hankel_matrix(alpha, k)) for k in (8, 16, 32, 64)]
        monotone_ok = monotone_ok and all(
            b >= a - 1e-12 for a, b in zip(norms, norms[1:])
        )

    ok = (
        worst_resid <= 1e-14 and corruption_ok
        and worst_embed <= 1e-12 and monotone_ok
    )
    report(
        capsys, 3, ok,
        f"commutation {worst_resid:.2e}, corruptions detected {corruption_ok}, "
        f"embedding {worst_embed:.2e}, monotone {monotone_ok}",
        time.time() - t0,
    )


def test_criterion_4_calibration(capsys):
    t0 = time.time()
    # Hilbert antidiagonals 1/(m+1): N=2 block [[1,1/2],[1/2,1/3]] has top
    # eigenvalue (trace + sqrt(trace^2 - 4 det))/2 = (4 + sqrt(13))/6
    def hilbert_norm(size):
        alpha = [Quaternion(1.0 / (m + 1)) for m in range(2 * size - 1)]
        return operator_norm(build_hankel_matrix(alpha, size))

    two_err = abs(hilbert_norm(2) - (4 + math.sqrt(13)) / 6)

    sizes = [8, 16, 32, 64, 128, 256, 512, 1024]
    table = []
    oracle_err = 0.0
    for size in sizes:
        got = hilbert_norm(size)
        real = np.array([
            [1.0 / (j + k + 1) for k in range(size)] for j in range(size)
        ])
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(real))))
        oracle_err = max(oracle_err, abs(got - oracle))
        table.append(got)
    below_pi = all(v < math.pi for v in table)
    nondecreasing = all(b >= a for a, b in zip(table, table[1:]))

    c = Quaternion(0.3, -1.1, 0.7, 2.2)
    phi = SliceLaurentSeries({-1: c})
    rank_one_norm_err = abs(hankel_norm(phi) - abs(c))
    res = constructive_best_approx(phi, 64, 8192)
    rank_one_dist_err = abs(res.distance - abs(c))

    ok = (
        two_err <= 1e-10 and below_pi and nondecreasing and oracle_err <= 1e-10
        and rank_one_norm_err <= 1e-12 and rank_one_dist_err <= 1e-6
    )
    report(
        capsys, 4, ok,
        f"N=2 err {two_err:.2e}, table<pi {below_pi}, nondecreasing "
        f"{nondecreasing}, eig oracle {oracle_err:.2e}, rank-one norm "
        f"{rank_one_norm_err:.2e}, rank-one distance {rank_one_dist_err:.2e}",
        time.time() - t0,
    )


def test_criterion_5_nehari(capsys):
    t0 = time.time()
    rng = np.random.default_rng(105)
    n, grid, budget, degree = 64, 8192, 20000, 6
    tol_rel = 2e-2

    lower_ok = equality_ok = sandwich_ok = poles_ok = gauge_ok = True
    worst_eq = worst_gauge = 0.0
    for _ in range(50):
        coeffs = {
            -(m + 1): Quaternion(*rng.normal(size=4))
            for m in range(int(rng.integers(1, 5)))
        }
        for pos in range(int(rng.integers(0, 3))):
            coeffs[pos] = Quaternion(*rng.normal(size=4))
        phi = SliceLaurentSeries(coeffs)
        hn = hankel_norm(phi)
        rng.integers(2**31)  # a spent draw, so that the symbols after it stay fixed
        opt = optimize_distance(phi, degree, grid, budget)
        lower_ok = lower_ok and all(hn <= it + 1e-6 for it in opt.iterates)

        g = maximizing_vector(phi)
        cons = constructive_best_approx(phi, n, grid, g=g)
        rel = abs(cons.distance - hn) / hn
        worst_eq = max(worst_eq, rel)
        equality_ok = equality_ok and rel <= tol_rel

        d = min(cons.distance, opt.distance)
        gamma = hn  # the Gamma matrix of the antidiagonal data is the same
        sandwich_ok = sandwich_ok and (
            d * (1 - tol_rel) <= gamma <= 2 * d * (1 + tol_rel)
        )

        # g^s has no zero in the closed disc: the competitor has no pole
        poles_ok = poles_ok and cons.zeros_in_disc == 0 and cons.status == "ok"

        for _ in range(8):
            v = rng.normal(size=4)
            u = Quaternion(*(v / np.linalg.norm(v)))
            gauged = constructive_best_approx(phi, n, grid, g=g.times_right(u))
            gauge_err = abs(gauged.distance - cons.distance)
            worst_gauge = max(worst_gauge, gauge_err)
            gauge_ok = gauge_ok and gauge_err <= 1e-10

    ok = lower_ok and equality_ok and sandwich_ok and poles_ok and gauge_ok
    report(
        capsys, 5, ok,
        f"iterate lower bound {lower_ok}, |cons-norm| rel {worst_eq:.2e}, "
        f"sandwich {sandwich_ok}, no poles {poles_ok}, "
        f"gauge {worst_gauge:.2e}; target < 300s",
        time.time() - t0,
    )


def test_criterion_6_bound_chain(capsys):
    t0 = time.time()
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(500):
        psi = random_series(rng, -6, 6, mag=2.0)
        f = random_series(rng, 0, 8, mag=2.0)
        lhs = l2_norm(apply_H(psi, f))
        rhs = linf_norm(psi, 2048) * l2_norm(f)
        worst = max(worst, lhs / rhs)
    ok = worst <= 1.0 + 1e-6
    report(capsys, 6, ok, f"max ||H_psi f|| / (linf * l2) = {worst:.9f}", time.time() - t0)


def test_criterion_7_bmo(capsys):
    t0 = time.time()
    rng = np.random.default_rng(107)
    worst = -math.inf
    for _ in range(200):
        f = random_series(rng, 0, 6, mag=2.0)
        excess = bmo_norm(f, grid=256) - 2.0 * linf_norm(f, 256) - 1e-9
        worst = max(worst, excess)
    const = bmo_norm(SliceLaurentSeries.constant(Quaternion(1, 2, 3, 4)), grid=256)
    ok = worst <= 0.0 and const <= 1e-12
    report(
        capsys, 7, ok,
        f"max bmo - 2*linf excess {worst:.2e}, constant bmo {const:.2e}",
        time.time() - t0,
    )

"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest
import yaml

from freefock import (
    EnsembleSpec,
        build_index_space,
    build_oscillator_model,
    build_wave_model,
    compose,
    dalembert_average,
    estimate_mtcf,
    eta,
    eta_star,
    free_solution,
    gaussian_free_moments,
    hydro_moments,
    identity_catalog,
    identity_operator,
    lambda_degree_check,
    lower_triangular_expansion,
    marginals,
    number_operator,
    perturbation_series,
    pinned_ensemble,
    rational_solve,
    simulate,
    vacuum_projector,
)
from freefock.cli import main as cli_main
from freefock.cuntz import Monomial, OperatorExpr
from freefock.inverse import left_inverse_G, right_inverse_K, right_inverse_N0, truncate_operator
from freefock.model import KernelSet
from freefock.solver import propagate_residual_stderr, residual_by_level


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def scalar_kernels(k=2.0, g=1.0, lam=0.0, m=1.0):
    space = build_index_space(1, (0,))
    return KernelSet(
        space=space, K=np.array([[k]]), G=np.array([g]), M=np.array([[m]]),
        lam=lam, green=np.array([[1.0 / k]]),
    )


def algebra_oscillator():
    return build_oscillator_model(
        omega=1.0, dt=0.3, T=5, lam=0.05, q=0.3, forcing=0.4, x0_mean=0.3, v0_mean=0.1
    ).kernels


def test_criterion_01_generator_and_unit_suite():
    t0 = time.time()
    worst = 0.0
    for d in (2, 3, 5):
        space = build_index_space(1, tuple(range(d)))
        for i in range(d):
            for j in range(d):
                c = compose(eta(space, i), eta_star(space, j))
                val = float(c.terms[0].kernel) if c.terms else 0.0
                worst = max(worst, abs(val - (1.0 if i == j else 0.0)))
        unit = number_operator(space) + vacuum_projector(space)
        from freefock.inverse import dense_residual

        worst = max(worst, dense_residual(unit, identity_operator(space), 4))
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"generator relation and unit decomposition residual {worst:.2e} in {elapsed:.1f}s",
    )


def test_criterion_02_component_contraction_factor():
    results = {}
    for A in (1, 2, 3):
        space = build_index_space(A, (0, 1))
        low = np.zeros((space.d, space.d))
        high = np.zeros((space.d, space.d))
        for al in range(A):
            low[space.encode_idx(al, 0), space.encode_idx(al, 0)] += 1.0
            high[space.encode_idx(al, 0), space.encode_idx(al, 0)] += 1.0
        prod = compose(
            OperatorExpr(space, (Monomial(0, 2, low),)),
            OperatorExpr(space, (Monomial(2, 0, high),)),
        )
        results[A] = float(prod.terms[0].kernel)
    ok = all(results[A] == float(A) for A in (1, 2, 3)) and results[3] == 3.0
    report(2, ok, f"contraction factors {results} (component count reproduced exactly)")


def test_criterion_03_inverse_catalog():
    t0 = time.time()
    kernels = algebra_oscillator()
    results = identity_catalog(kernels, 3)
    elapsed = time.time() - t0
    failed = [r.id for r in results if r.passed is False]
    skipped = [r.id for r in results if r.passed is None]
    worst = max(r.residual for r in results if r.residual is not None)
    report(
        3,
        not failed and not skipped and worst <= 1e-10 and elapsed < 60.0,
        f"{len(results)} identities, worst residual {worst:.2e}, "
        f"failed={failed}, skipped={skipped}, {elapsed:.1f}s",
    )


def test_criterion_04_branching_term_vanishes():
    kernels = algebra_oscillator()
    L = 3
    kb = right_inverse_K(kernels)
    lb = left_inverse_G(kernels)
    nb = right_inverse_N0(kernels)
    Q_G = compose(lb.operator, lb.inverse)
    P_N = identity_operator(kernels.space) - compose(nb.inverse, nb.operator)
    branching = truncate_operator(compose(compose(kb.inverse, Q_G), compose(nb.operator, P_N)), L)
    worst = max((float(np.abs(t.kernel).max()) for t in branching.terms), default=0.0)
    report(4, worst <= 1e-12, f"branching-term kernel norm {worst:.2e}")


def test_criterion_05_expansion_structure():
    kern = scalar_kernels(lam=0.05)
    rep = lower_triangular_expansion(kern, 4)
    expected = {m: m // 2 + 1 for m in range(5)}
    counts_ok = rep.series_terms_used == expected

    kern0 = scalar_kernels(lam=0.0)
    series = perturbation_series(kern0, 4, order=6)
    free = free_solution(kern0, 4)
    bits_ok = all(a.tobytes() == b.tobytes() for a, b in zip(series.V.levels, free.levels))
    report(
        5,
        counts_ok and bits_ok,
        f"per-level term counts {rep.series_terms_used} match the grading bound; "
        f"zero-coupling series is the free solution bit for bit",
    )


def test_criterion_06_rational_polynomiality():
    kern = scalar_kernels(lam=0.05)
    L = 4
    grid = np.linspace(0.0, 0.07, 8)
    fits = lambda_degree_check(lambda lam: rational_solve(kern, L, lam=lam).V, grid, L, tol=1e-10)
    degree_ok = all(deg <= (m + 1) // 2 + 1 for m, (deg, _) in fits.items())
    residual_ok = all(resid <= 1e-10 for _, resid in fits.values())
    # residual of the transformed equation on trusted levels
    rep = rational_solve(kern, L, lam=0.05)
    lo, hi = rep.trusted_levels
    res_ok = all(rep.residual.per_level[n] <= 1e-10 for n in range(lo, hi + 1))
    degrees = {m: d for m, (d, _) in sorted(fits.items())}
    report(
        6,
        degree_ok and residual_ok and res_ok,
        f"level degrees {degrees} within the ceil(m/2)+1 bound, interpolation residual < 1e-10",
    )


def test_criterion_07_oracle_vs_free_theory():
    t0 = time.time()
    m = build_oscillator_model(omega=1.0, dt=0.15, T=16, lam=0.0, forcing=0.2,
                               x0_mean=0.1, v0_mean=0.05)
    ens = EnsembleSpec(mean=[0.1, 0.05], cov=np.diag([0.09, 0.04]), samples=10_000, seed=2)
    mc = estimate_mtcf(simulate(m, ens), max_order=4)
    ana = gaussian_free_moments(m, ens, max_order=4)
    worst_z = 0.0
    ok = True
    for n in range(1, 5):
        gap = np.abs(mc.values[n] - ana.values[n])
        ok &= bool(np.all(gap <= 3.0 * mc.stderr[n] + 1e-12))
        with np.errstate(invalid="ignore", divide="ignore"):
            z = gap / np.where(mc.stderr[n] == 0.0, 1.0, mc.stderr[n])
        worst_z = max(worst_z, float(z.max()))
    elapsed = time.time() - t0
    report(
        7,
        ok and elapsed < 120.0,
        f"all words to order 4 within 3 standard errors of the pairing oracle "
        f"(max |z| = {worst_z:.2f}, {elapsed:.1f}s, 10^4 samples)",
    )


def test_criterion_08_order_two_error_scaling():
    t0 = time.time()
    errors = {}
    for lam in (0.02, 0.01):
        m = build_oscillator_model(omega=1.0, dt=0.15, T=16, lam=lam, forcing=0.3,
                                   x0_mean=0.4, v0_mean=0.1, interaction_rows="interior")
        ens = pinned_ensemble([0.4, 0.1], samples=100_000, seed=7)
        table = estimate_mtcf(simulate(m, ens), max_order=1)
        series = perturbation_series(m.kernels, 5, order=2)
        interior = slice(2, None)
        errors[lam] = float(np.abs(series.V.level(1)[interior] - table.values[1][interior]).max())
    ratio = errors[0.02] / errors[0.01]
    elapsed = time.time() - t0
    report(
        8,
        4.0 <= ratio <= 16.0 and elapsed < 600.0,
        f"order-2 remainder scales as the coupling cubed: ratio {ratio:.2f} in [4, 16] "
        f"({elapsed:.1f}s, 10^5 samples per coupling)",
    )


def test_criterion_09_empirical_hierarchy_residual():
    ok = True
    details = []
    for lam in (0.0, 0.02):
        m = build_oscillator_model(omega=1.0, dt=0.15, T=8, lam=lam, forcing=0.3,
                                   x0_mean=0.4, v0_mean=0.1, interaction_rows="interior")
        ens = EnsembleSpec(mean=[0.4, 0.1], cov=np.diag([0.04, 0.01]), samples=10_000, seed=99)
        table = estimate_mtcf(simulate(m, ens), max_order=4)
        vhat = table.to_vector(m.space, 4)
        res = residual_by_level(vhat, m.kernels, rows="equation")
        se = propagate_residual_stderr(m.kernels, table.se_vector(m.space, 4))
        lo, hi = res.trusted_levels
        for n in range(lo, hi + 1):
            t = se.levels[n]
            if n >= 1:
                mask = np.ones(t.shape[0], dtype=bool)
                mask[list(m.kernels.data_rows)] = False
                floor = float(t[mask].min())
            else:
                floor = float(t) if t.shape == () else float(t.min())
            bound = 4.0 * floor + 1e-9
            ok &= res.per_level[n] <= bound
            details.append(f"lam={lam} level {n}: {res.per_level[n]:.1e} <= {bound:.1e}")
    report(9, ok, "; ".join(details))


def test_criterion_10_dalembert_check():
    wm = build_wave_model(speed=1.0, nx=64, length=2.0, cfl=0.5, nt=64)
    u0 = lambda x: np.sin(np.pi * x)
    mean = np.concatenate([u0(wm.grid), np.zeros(wm.nx)])
    ens = EnsembleSpec(mean=mean, cov=0.0, samples=2, seed=0)
    out = dalembert_average(wm, ens, u0_mean=u0, w0_mean=None, steps=[32])
    gap = float(np.abs(out[0]["formula"] - out[0]["simulated"]).max())
    report(10, gap <= 1e-3, f"averaged wave field vs formula: max gap {gap:.2e} <= 1e-3 "
                            f"(CFL 0.5, 64-point grid)")


def test_criterion_11_marginals_and_hydro():
    rng = np.random.default_rng(12)
    f = rng.random((3, 4, 2))
    f /= f.sum()
    marg_ok = np.array_equal(marginals(f, 1), marginals(marginals(f, 2), 1))

    m = build_oscillator_model(omega=1.0, dt=0.1, T=10, lam=0.0)
    ens = EnsembleSpec(mean=[0.3, 0.1], cov=np.diag([0.09, 0.04]), samples=5000, seed=8)
    traj = simulate(m, ens)
    worst = 0.0
    for k in (0, 1, 2):
        hm = hydro_moments(traj, k=k)
        worst = max(worst, hm.max_discrepancy_sigma())
    report(
        11,
        marg_ok and worst <= 3.0,
        f"marginal composition law bit exact; hydro routes within {worst:.2e} combined sigma",
    )


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "model": {
            "kind": "oscillator", "omega": 1.0, "dt": 0.15, "T": 8, "lambda": 0.02,
            "forcing": 0.3, "x0_mean": 0.4, "v0_mean": 0.1, "interaction_rows": "interior",
        },
        "truncation": {"L": 3},
        "solver": {"method": "perturb", "order": 2},
        "oracle": {
            "mean": [0.4, 0.1], "cov": [[0.04, 0.0], [0.0, 0.01]],
            "samples": 3000, "seed": 31415, "max_order": 3,
        },
        "compare": {"words": "level1_interior", "sigma": 3.0, "abs_slack": 1e-6, "rows": "equation"},
    }
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg))
    pairs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        assert cli_main(["compare", "--config", str(path), "--out", str(outdir)]) == 0
        assert cli_main(["oracle", "run", "--config", str(path), "--out", str(outdir)]) == 0
        pairs.append(outdir)
    same = True
    for name in ("run_compare.json", "run_compare.csv", "run_mtcf.csv", "run_manifest.json"):
        same &= (pairs[0] / name).read_bytes() == (pairs[1] / name).read_bytes()
    report(12, same, "repeated runs with one seed produce byte-identical CSV and JSON outputs")

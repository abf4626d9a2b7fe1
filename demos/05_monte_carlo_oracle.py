#!/usr/bin/env python3
# Ground truth: seeded trajectory ensembles and direct moment estimation.
#
# Ensembles of initial conditions are propagated through the model's
# discrete dynamics; products of field values estimate the correlation
# functions, and the estimates are cross-checked against the Gaussian
# pairing oracle, the hierarchy equations, the d'Alembert formula and
# the hydrodynamic moment identity.

import numpy as np

from freefock import (
    EnsembleSpec, build_oscillator_model, build_wave_model, dalembert_average,
    estimate_mtcf, gaussian_free_moments, hydro_moments, perturbation_series,
    pinned_ensemble, simulate,
)
from freefock.solver import propagate_residual_stderr, residual_by_level

# --- sampling + propagation -----------------------------------------------------

model = build_oscillator_model(omega=1.0, dt=0.15, T=8, lam=0.0, forcing=0.3,
                               x0_mean=0.4, v0_mean=0.1)
ens = EnsembleSpec(mean=[0.4, 0.1], cov=np.diag([0.04, 0.01]), samples=20_000, seed=42)
traj = simulate(model, ens)
print(f"simulated {traj.samples} trajectories with the {traj.scheme} scheme")

# --- moment table vs the Gaussian pairing oracle ----------------------------------

table = estimate_mtcf(traj, max_order=4)
analytic = gaussian_free_moments(model, ens, max_order=4)
for n in (1, 2, 3, 4):
    z = np.abs(table.values[n] - analytic.values[n]) / np.where(
        table.stderr[n] == 0, 1.0, table.stderr[n])
    print(f"order {n}: max |z| against the pairing oracle = {z.max():.2f}")

# --- the empirical generating vector satisfies the hierarchy -----------------------

vhat = table.to_vector(model.space, 4)
res = residual_by_level(vhat, model.kernels, rows="equation")
print("\nhierarchy residual of the empirical vector (trusted levels, equation rows):",
      {n: f"{v:.1e}" for n, v in res.per_level.items()})
se = propagate_residual_stderr(model.kernels, table.se_vector(model.space, 4))
print("(propagated standard-error floor at level 2:",
      f"{float(se.level(2).min()):.2e})")

# --- solver vs oracle with a weak cubic coupling ------------------------------------

lam = 0.02
nl = build_oscillator_model(omega=1.0, dt=0.15, T=8, lam=lam, forcing=0.3,
                            x0_mean=0.4, v0_mean=0.1, interaction_rows="interior")
mc = estimate_mtcf(simulate(nl, pinned_ensemble([0.4, 0.1], samples=1000, seed=7)), max_order=1)
series = perturbation_series(nl.kernels, 5, order=2)
gap = np.abs(series.V.level(1)[2:] - mc.values[1][2:]).max()
print(f"\norder-2 series vs simulated mean at lam={lam}: max gap {gap:.2e} (cubic-order remainder)")

# --- wave averages and the d'Alembert formula ----------------------------------------

wm = build_wave_model(speed=1.0, nx=64, length=2.0, cfl=0.5, nt=64)
u0 = lambda x: np.sin(np.pi * x)
mean = np.concatenate([u0(wm.grid), np.zeros(wm.nx)])
wave_ens = EnsembleSpec(mean=mean, cov=0.0, samples=2, seed=0)
rec = dalembert_average(wm, wave_ens, u0_mean=u0, w0_mean=None, steps=[32])[0]
print(f"\nwave field at t={rec['time']:.2f}: max |formula - simulated mean| ="
      f" {np.abs(rec['formula'] - rec['simulated']).max():.2e}")

# --- hydrodynamic moments, two routes -------------------------------------------------

hm = hydro_moments(traj, k=2)
print(f"\nhydro moment <x^2 v>: routes agree within {hm.max_discrepancy_sigma():.1e} sigma")

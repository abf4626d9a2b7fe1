#!/usr/bin/env python3
# Building blocks: finite index spaces and discretized model kernels.
#
# The library works over a flat enumeration of (component, base-label)
# pairs. For the oscillator, base labels are time-grid points; the
# kernel set packages the linear stencil K, the source G, the cubic
# interaction kernel M and the Green's function of K.

import numpy as np

from freefock import build_index_space, build_oscillator_model, validate_kernels

# --- index spaces -----------------------------------------------------------

space = build_index_space(A=3, labels=("u0", "u1"))
print(f"A=3 components x 2 base labels -> d = {space.d}")
print("decode(0) =", space.decode(0))
print("decode(4) =", space.decode(4))

# --- the discretized oscillator ---------------------------------------------

# Phi'' = -omega^2 Phi + lam Phi^3 + f(t), second-difference stencil in time.
# Rows 0 and 1 pin the initial data; row r >= 2 determines x_r.
model = build_oscillator_model(
    omega=1.0, dt=0.2, T=6, lam=0.05, forcing=0.3, x0_mean=0.4, v0_mean=0.1
)
print("\nstencil matrix K (lower triangular in time):")
print(np.round(model.kernels.K, 3))
print("\nsource kernel G (sign-flipped forcing and initial means):")
print(model.kernels.G)

# The Green's function is retarded: a force at time r only influences
# later points.
green = model.kernels.green
print("\nGreen's function zero pattern above the diagonal:",
      bool(np.allclose(np.triu(green[:, 2:], k=-1)[np.triu_indices(4, 1)], 0.0)))

# --- diagnostics --------------------------------------------------------------

print("\nkernel diagnostics:")
print(validate_kernels(model.kernels).render())

# A model without forcing has zero source entries; the diagnostics flag
# every label where the left inverse of the source operator is undefined.
bare = build_oscillator_model(omega=1.0, dt=0.2, T=6)
print("\nunforced model warnings:")
for w in validate_kernels(bare.kernels).warnings:
    print(" ", w)

# The free-boundary variant drops the initial-data rows: K becomes
# singular and the near-null directions are reported.
free = build_oscillator_model(omega=0.0, dt=1.0, T=6, boundary="free")
diag = validate_kernels(free.kernels)
print(f"\nfree boundary: {len(diag.near_null)} near-null directions, ok={diag.ok}")

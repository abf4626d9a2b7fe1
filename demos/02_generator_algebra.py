#!/usr/bin/env python3
# The generator algebra on the truncated free Fock space.
#
# Generators satisfy eta(x) eta*(y) = delta(x,y) I with eta|0> = 0, so
# operator products rewrite exactly with no remainder terms. This script
# walks the relation, gradings, normal-ordering indifference and the
# block-matrix picture.

import numpy as np

from freefock import (
    apply_operator, build_oscillator_model, classify_triangularity, compose,
    build_index_space, eta, eta_star, format_operator, identity_operator,
    interaction_operator, linear_operator, materialize, number_operator,
    source_operator, symmetrize, vacuum, vacuum_projector,
)
from freefock.cuntz import permute_annihilation_slots
from freefock.fock import FockVector

space = build_index_space(1, (0, 1, 2))

# --- the defining relation ----------------------------------------------------

for i in range(3):
    row = []
    for j in range(3):
        c = compose(eta(space, i), eta_star(space, j))
        row.append(float(c.terms[0].kernel) if c.terms else 0.0)
    print(f"eta({i}) eta*(j) ->", row)

# creation on the vacuum, then annihilation back
v = apply_operator(eta_star(space, 1), vacuum(space, 3))
print("\neta*(1)|0> level 1:", v.level(1))
back = apply_operator(eta(space, 1), v)
print("eta(1) eta*(1)|0> level 0:", float(back.level(0)))

# the vacuum projector is I - N, so the number operator plus it is the unit
print("\nvacuum projector as monomials:")
print(format_operator(vacuum_projector(space)))
unit = number_operator(space) + vacuum_projector(space)
rng = np.random.default_rng(0)
w = FockVector(space, tuple(rng.standard_normal((3,) * n) for n in range(4)))
print("unit decomposition reproduces a random vector:",
      apply_operator(unit, w).allclose(w, atol=0))

# --- model operators and their gradings ---------------------------------------

model = build_oscillator_model(omega=1.0, dt=0.25, T=4, lam=0.05, forcing=0.3,
                               x0_mean=0.2, v0_mean=0.1)
for name, op in (
    ("linear part ", linear_operator(model.kernels)),
    ("source      ", source_operator(model.kernels)),
    ("cubic       ", interaction_operator(model.kernels)),
):
    print(name, "->", classify_triangularity(op))

# --- normal ordering -----------------------------------------------------------

# Reordering the annihilation word changes nothing on permutation-symmetric
# vectors (where the generating vector lives), but does act differently on
# an asymmetric tensor.
N = interaction_operator(model.kernels)
N_perm = permute_annihilation_slots(N, (2, 0, 1))
sym = symmetrize(FockVector(model.space, tuple(rng.standard_normal((4,) * n) for n in range(4))))
print("\nreordered annihilators agree on a symmetric vector:",
      apply_operator(N, sym).allclose(apply_operator(N_perm, sym), atol=1e-12))
t = np.zeros((4, 4, 4)); t[0, 1, 2] = 1.0
asym = FockVector(model.space, (np.zeros(()), np.zeros(4), np.zeros((4, 4)), t))
print("... and differ on an asymmetric one:",
      not apply_operator(N, asym).allclose(apply_operator(N_perm, asym), atol=1e-12))

# --- block matrices and printing ----------------------------------------------

blocks = materialize(source_operator(model.kernels), 3)
print("\nsource operator populates blocks:", sorted(blocks))
print("\ncanonical text form of a small operator:")
print(format_operator(compose(eta_star(space, 0), eta(space, 2)) + identity_operator(space)))

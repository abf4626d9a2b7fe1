#!/usr/bin/env python3
# Right and left inverses of the hierarchy's building blocks.
#
# A right inverse satisfies A R = I - P0 (P0 projects on the vacuum), a
# left inverse L A = I. Both are non-unique; a bundle is the pair (A, R),
# and the projectors I - R A and A R parameterizing the freedom are
# composed by the identity checks that compare them. With P0 = I - N, I - P0 is the
# number operator N. Each identity below is composed exactly and compared
# on materialized blocks; the catalog at the end compares the canonical
# kernels instead, which needs no materialization.

import numpy as np

from freefock import (
    build_oscillator_model, compose, generalized_inverse_report, identity_catalog,
    identity_operator, left_inverse_G, neumann_inverse, number_operator, right_inverse_K,
    right_inverse_K_plus_G, right_inverse_N0, right_inverse_Nq, source_operator,
)
from freefock.inverse import dense_residual, truncate_operator

model = build_oscillator_model(omega=1.0, dt=0.3, T=5, lam=0.05, q=0.3,
                               forcing=0.4, x0_mean=0.3, v0_mean=0.1)
kern, space, L = model.kernels, model.space, 3

# --- the diagonal linear part ---------------------------------------------------

kb = right_inverse_K(kern)
print("K Kinv = I - P0 residual:",
      dense_residual(compose(kb.operator, kb.inverse), number_operator(space), L))

# --- unit plus raising: exact Neumann inversion ---------------------------------

neum = neumann_inverse(identity_operator(space) + source_operator(kern), L)
print("Neumann sum terms for a raising-1 remainder at L=3:", len(neum.terms))
prod = truncate_operator(compose(identity_operator(space) + source_operator(kern), neum), L)
print("(I+G)(I+G)^{-1} = I residual:", dense_residual(prod, identity_operator(space), L))

# --- linear plus source ----------------------------------------------------------

kgb = right_inverse_K_plus_G(kern, L)
print("(K+G)(K+G)inv = I - P0 residual:",
      dense_residual(truncate_operator(compose(kgb.operator, kgb.inverse), L),
                     number_operator(space), L))

# --- the source's left inverse ----------------------------------------------------

lb = left_inverse_G(kern)
print("Ginv G = I residual:",
      dense_residual(compose(lb.inverse, lb.operator), identity_operator(space), L))

# --- the cubic interaction ---------------------------------------------------------

nb0 = right_inverse_N0(kern)
print("N(0) R(0) = I - P0 residual:",
      dense_residual(truncate_operator(compose(nb0.operator, nb0.inverse), L),
                     number_operator(space), L))
nbq = right_inverse_Nq(kern)
print("N(q) R(q) = I - P0 residual (q=0.3):",
      dense_residual(truncate_operator(compose(nbq.operator, nbq.inverse), L),
                     number_operator(space), L))

# --- generalized-inverse axioms ------------------------------------------------------

rep = generalized_inverse_report(lb.operator, lb.inverse, L)
print("\naxioms for the source pair (measured, not assumed):")
for name, value in rep.to_dict().items():
    if name in ("tol", "passes"):
        continue
    print(f"  {name:20s} {value:.3e}")
print("  (the oblique range projector fails the normalized condition, as expected)")

# --- the whole catalog ----------------------------------------------------------------

print("\nfull identity catalog:")
for r in identity_catalog(kern, L):
    status = "pass" if r.passed else ("skip" if r.passed is None else "FAIL")
    res = "-" if r.residual is None else f"{r.residual:.2e}"
    print(f"  {status:4s} {r.id:45s} {res}")

#!/usr/bin/env python3
"""Exact solutions and their energies in both canonical pictures.

The sine-Gordon field phi(x, t) admits two Legendre transforms: the usual
one over time slices (momentum pi = phi_t, energy H_S) and its mirror over
space slices (momentum Pi = -phi_x, energy H_T generating evolution in x).
This walk-through samples the kink family and shows

  * the equation-of-motion residual vanishing at second order in the
    finite-difference step,
  * H_S = 8 m gamma / beta^2 with the Lorentz factor appearing exactly,
  * H_T = -8 m gamma |v| / beta^2, constant along x,
  * the winding integers read off the asymptotes in x and in t.
"""

import numpy as np

from sgdual import (
    GridWindow,
    ModelParams,
    hamiltonian_S,
    hamiltonian_T,
    make_kink,
    make_vacuum,
    topological_charges,
)

params = ModelParams(m=1.0, beta=1.0)
window = GridWindow(40.0, 16001)

print("== equation-of-motion residual (finite differences) ==")
kink = make_kink(params, v=0.4, x0=0.0, orientation=1)
for h in (2e-3, 1e-3, 5e-4):
    phi = lambda x, t: float(np.asarray(kink.derivative(x, t, 0, 0)))
    x, t = 0.7, 0.2
    res = (
        (phi(x, t + h) - 2 * phi(x, t) + phi(x, t - h)) / h**2
        - (phi(x + h, t) - 2 * phi(x, t) + phi(x - h, t)) / h**2
        + np.sin(phi(x, t))
    )
    print(f"  h={h:7.1e}  residual={abs(res):.3e}")

print("\n== equal-time energy H_S and the Lorentz factor ==")
h0 = float(hamiltonian_S(make_kink(params, v=0.0), 0.0, window))
print(f"  static kink: H_S = {h0:.8f}  (expected 8)")
for v in (0.2, 0.5, 0.8):
    hv = float(hamiltonian_S(make_kink(params, v=v), 0.0, window))
    gamma = 1.0 / np.sqrt(1.0 - v * v)
    print(f"  v={v}: H_S = {hv:.8f},  H_S / H_S(0) = {hv / h0:.8f},  gamma = {gamma:.8f}")

print("\n== equal-space energy H_T, constant along x ==")
kink6 = make_kink(params, v=0.6)
for x in (0.0, 0.5, 1.0):
    print(f"  x={x}: H_T = {float(hamiltonian_T(kink6, x, window)):+.8f}   (expected -8 gamma |v| = -6)")

print("\n== winding integers from the asymptotes ==")
print("  vacuum, space picture:", topological_charges(make_vacuum(params), 0.0, "space"))
print("  kink v=0.5, space picture:", topological_charges(make_kink(params, v=0.5), 0.0, "space"))
print("  kink v=0.5 at x=2, time picture:", topological_charges(make_kink(params, v=0.5), 2.0, "time"))

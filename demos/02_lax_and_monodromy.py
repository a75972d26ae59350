#!/usr/bin/env python3
"""Lax matrices, zero curvature, and the two monodromy generating functions.

The auxiliary problem Psi_x = U Psi, Psi_t = V Psi is compatible exactly on
solutions (zero curvature), and two regularised monodromies exist: the usual
whole-line-in-x matrix whose (1,1) entry a(lambda) is time-independent, and
the whole-line-in-t matrix whose (1,1) entry fa(lambda) is x-independent.
On a kink both are pure Blaschke factors in lambda, with the pole position
set by the velocity alone -- the numerics below recover that to ~1e-9 and
show the off-diagonal (reflection) entries at the same level.
"""

import numpy as np

from sgdual import ModelParams, make_kink, make_vacuum, spectral, zero_curvature_residual
from sgdual.transition import monodromies

params = ModelParams(1.0, 1.0)
kink = make_kink(params, v=0.4)

print("== zero-curvature residual U_t - V_x + [U, V] ==")
sp = spectral(1.2, params)
print(f"  vacuum: {zero_curvature_residual(make_vacuum(params), 0.0, 0.0, sp, 1e-3):.3e}")
for h in (1e-3, 5e-4):
    print(f"  kink, h={h:g}: {zero_curvature_residual(kink, 0.5, 0.1, sp, h):.3e}")

print("\n== space monodromy: a(lambda) is conserved in time ==")
mu = np.sqrt((1 - 0.4) / (1 + 0.4))
lams = (0.5, 1.0, 2.0, 4.0)
sps = [spectral(lam, params) for lam in lams]
m0s, m2s = (monodromies(kink, "space", t, 30.0, sps) for t in (0.0, 2.0))  # one call per line, so lambdas sharing a count share its mesh
for lam, m0, m2 in zip(lams, m0s, m2s):
    blaschke = (lam - 1j * mu) / (lam + 1j * mu)
    print(
        f"  lam={lam:4g}: a={m0.a_entry:+.9f}  drift={abs(m0.a_entry - m2.a_entry):.1e}"
        f"  vs (lam - i mu)/(lam + i mu): {abs(m0.a_entry - blaschke):.1e}"
        f"  |reflection|={abs(m0.matrix[0, 1]):.1e}"
    )

print("\n== time monodromy: fa(lambda) is conserved in space ==")
lams = (0.5, 2.0)
sps = [spectral(lam, params) for lam in lams]
f0s, f1s = ([m.a_entry for m in monodromies(kink, "time", x, 50.0, sps)] for x in (0.0, 1.0))
a0s = [m.a_entry for m in monodromies(kink, "space", 0.0, 30.0, sps)]
for lam, f0, f1, a0 in zip(lams, f0s, f1s, a0s):
    print(f"  lam={lam:4g}: fa={f0:+.9f}  drift across x: {abs(f0 - f1):.1e}  fa*a={f0 * a0:+.6f}")

print("\nfa = 1/a on the kink: the two pictures carry the same scattering content.")

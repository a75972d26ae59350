#!/usr/bin/env python3
"""The classical r-matrix and the two canonical bracket algebras.

One fixed 4x4 kernel controls both Poisson structures: the equal-time
bracket of the space Lax matrix satisfies {U_1, U_2} = delta [r, U_1 + U_2],
and the equal-space bracket of the time Lax matrix satisfies the same
relation with the opposite overall sign.  On the lattice the same-site
relation is an exact matrix identity -- checked to machine precision below,
together with a deliberately sign-flipped control.  The finite-interval
transition bracket then follows at first order in the spacing, and the
involution proxy |{fa(lam), fa(mu)}| shrinks under refinement, which is the
operative meaning of Liouville integrability in the equal-space picture,
defect included.
"""

import numpy as np

from sgdual import ModelParams, make_kink, make_vacuum, spectral
from sgdual.defect import DefectParams, bt_kink_from_vacuum
from sgdual.fields import FieldSample
from sgdual.rmatrix import (
    involution_check,
    r_matrix,
    r_matrix_trig,
    transition_bracket_check,
    ultralocal_check,
)

params = ModelParams(1.0, 1.0)

print("== same-site bracket identity (exact, both pictures) ==")
rng = np.random.default_rng(1)
worst = {"space": 0.0, "time": 0.0}
for _ in range(20):
    sample = FieldSample(*rng.uniform(-3, 3, size=3))
    lam, mu = rng.uniform(0.3, 4.0, size=2)
    if abs(lam - mu) < 0.05:
        mu += 0.2
    for pic in worst:
        worst[pic] = max(worst[pic], ultralocal_check(pic, sample, spectral(lam, params), spectral(mu, params), params))
print(f"  worst gap over 20 random samples: space {worst['space']:.2e}, time {worst['time']:.2e}")
flipped = ultralocal_check("time", FieldSample(0.3, -0.2, 0.5), spectral(1.3, params), spectral(0.7, params), params, flip_sign=True)
print(f"  with the wrong overall sign the same check fails at {flipped:.2e}")

print("\n== rational vs difference (trigonometric) kernel ==")
a, b = 0.9, 0.35
diff = np.max(np.abs(r_matrix(np.exp(1j * a), np.exp(1j * b), params).matrix - r_matrix_trig(a - b, params)))
print(f"  max entry difference at angles ({a}, {b}): {diff:.2e}")

print("\n== finite-interval transition bracket, first order in the spacing ==")
kink = make_kink(params, v=0.4)
sp1, sp2 = spectral(1.3, params), spectral(0.7, params)
for n in (400, 800, 1600):
    rep = transition_bracket_check(kink, 0.0, (-5.0, 5.0), sp1, sp2, n)
    print(f"  n={n:5d}: gap={rep.gap:.4e}  (sides ~ {rep.rhs_norm:.3f})")

print("\n== involution proxy |{fa(lam), fa(mu)}| under refinement ==")
sps = (spectral(1.5, params), spectral(0.8, params))
print(f"  vacuum (identically zero): {involution_check(make_vacuum(params), 0.0, sps, 400, (-10, 10)):.1e}")
for n in (400, 800, 1600):
    print(f"  kink, n={n:5d}: {involution_check(kink, 0.7, sps, n, (-20.0, 20.0)):.4e}")
pair = bt_kink_from_vacuum(params, DefectParams(2.0))
for n in (400, 800, 1600):
    left = involution_check(pair.left, -0.5, sps, n, (-14.0, 14.0))
    right = involution_check(pair.right, 0.5, sps, n, (-14.0, 14.0))
    print(f"  defect pair, n={n:5d}: left {left:.1e}, right {right:.4e}")

"""sgdual: dual-picture verification toolkit for sine-Gordon with a defect.

The sine-Gordon equation admits two equivalent canonical descriptions, one
per independent variable: the usual equal-time bracket with Hamiltonian H_S,
and an equal-space bracket with Hamiltonian H_T generating evolution in x.
This package builds both pictures explicitly on exact solutions -- Lax
matrices, transition and monodromy matrices, the dual conserved-charge
hierarchies, the classical r-matrix algebra for both brackets, and the
Backlund-defect machinery that ties the two half-line theories together --
and checks every identity numerically at desk scale.

Modules
-------
matcore     2x2 / 4x4 complex matrix helpers and the entrywise 2x2 batch kernel
fields      exact solutions, energies, topological charges
lax         Lax matrices U, V and the entries of their gauged forms
transition  Magnus propagation, monodromies, Jost solutions
charges     Riccati recursions and the charge ledgers I_n, J_n
defect      frozen-Backlund defect: pairs, defect matrix, monodromies
rmatrix     classical r-matrix and lattice Poisson-bracket checks
suites      named verification suites producing machine-readable reports
cli         batch driver (``sgdual run`` / ``sgdual list-suites``)
"""

from .fields import (
    FieldSample,
    GridWindow,
    ModelParams,
    hamiltonian_S,
    hamiltonian_T,
    make_kink,
    make_vacuum,
    topological_charges,
)
from .lax import SpectralPoint, build_U, build_V, spectral, zero_curvature_residual
from .transition import appendix_equality_residuals, jost, monodromy, propagate

__all__ = [
    "ModelParams",
    "FieldSample",
    "GridWindow",
    "make_vacuum",
    "make_kink",
    "hamiltonian_S",
    "hamiltonian_T",
    "topological_charges",
    "SpectralPoint",
    "spectral",
    "build_U",
    "build_V",
    "zero_curvature_residual",
    "propagate",
    "monodromy",
    "jost",
    "appendix_equality_residuals",
]

__version__ = "0.1.0"

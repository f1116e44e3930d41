"""Operator calculus and inequality checks for Schrodinger operators
L = -Delta + V with nonnegative potentials, on discretized periodic boxes.
"""

from .grid import Field, GridSpec, lp_norm, read_field, sample, weak_l1, write_field
from .potentials import PotentialSpec, discretize_potential, eval_potential
from .semigroup import DenseOperator, dense_schrodinger, fk_kernel_estimate, strang_evolve
from .fracpow import (
    TimeQuadrature,
    build_quadrature,
    frac_power_apply,
    green_mass_all,
    perturbation_kernel,
)
from .riesz import RieszResult, schrodinger_riesz, sqrt_potential_inv_sqrt
from .counterexamples import SCANS, ce1_build, divergence_scan, green_bounded_check
from .verify import CheckReport, RunConfig, run_check, run_suite

__all__ = [
    "Field",
    "GridSpec",
    "lp_norm",
    "weak_l1",
    "sample",
    "read_field",
    "write_field",
    "PotentialSpec",
    "eval_potential",
    "discretize_potential",
    "DenseOperator",
    "dense_schrodinger",
    "strang_evolve",
    "fk_kernel_estimate",
    "TimeQuadrature",
    "build_quadrature",
    "frac_power_apply",
    "green_mass_all",
    "perturbation_kernel",
    "RieszResult",
    "schrodinger_riesz",
    "sqrt_potential_inv_sqrt",
    "ce1_build",
    "SCANS",
    "divergence_scan",
    "green_bounded_check",
    "CheckReport",
    "RunConfig",
    "run_check",
    "run_suite",
]

__version__ = "0.1.0"

"""Exact exterior algebra on R^8 over Q(sqrt2, sqrt3)."""

from .scalars import ONE, SQRT2, SQRT3, SQRT6, ZERO, Q, FieldScalar, rational
from .blades import DIM, blades_of_degree
from .forms import (Covector, Form, KForm, Vector, basis_blades, blade_pullback,
                    coefficient_matrix, contract, contract_generator,
                    hodge_star, inner, nullspace_on_forms, wedge)
from .endo import Endo, commutator, exp_nilpotent, pullback, rho
from . import linalg

__all__ = [
    "Q", "FieldScalar", "rational", "ZERO", "ONE", "SQRT2", "SQRT3", "SQRT6",
    "DIM", "blades_of_degree", "Vector", "Covector", "Form", "KForm",
    "wedge", "contract", "contract_generator", "blade_pullback", "hodge_star",
    "inner", "coefficient_matrix", "nullspace_on_forms", "basis_blades",
    "Endo", "rho", "pullback", "exp_nilpotent", "commutator", "linalg",
]

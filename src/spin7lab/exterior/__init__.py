"""Exact exterior algebra on R^8 over Q(sqrt2, sqrt3)."""

from .scalars import ONE, SQRT2, SQRT3, SQRT6, ZERO, Q, FieldScalar, rational
from .blades import BLADES, DIM
from .forms import (Covector, Form, FormOperator, KForm, Vector, basis_blades,
                    blade_pullback, contract, contract_generator, hodge_star,
                    inner, wedge)
from .endo import Endo, exp_nilpotent, pullback, rho
from . import linalg

__all__ = [
    "Q", "FieldScalar", "rational", "ZERO", "ONE", "SQRT2", "SQRT3", "SQRT6",
    "DIM", "BLADES", "Vector", "Covector", "Form", "KForm", "FormOperator",
    "wedge", "contract", "contract_generator", "blade_pullback",
    "hodge_star", "inner", "basis_blades", "Endo", "rho", "pullback",
    "exp_nilpotent", "linalg",
]

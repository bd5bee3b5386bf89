"""Invariant calculus on the cohomogeneity-one chamber of the spinor bundle.

liealg builds sp(2) with exact structure constants, chamber provides the
polynomial coefficient ring Q(sqrt2,sqrt3)[s, w, w^-1]/(w^5 - 1 - s^2) and
the 11-generator coframe calculus, and bryant_salamon assembles the
cohomogeneity-one 4-form, verifies its closedness, and runs the invariant
perturbation and Killing checks.
"""

from .liealg import (GENERATOR_NAMES, SP1_MINUS, SP1_PLUS, LieFrame,
                     Quaternion, QuatMat2, build_lie_frame,
                     build_orthonormal_frame, generator_coords,
                     is_subalgebra, killing_matrix, normalizer)
from .chamber import (COFRAME_NAMES, N_COFRAME, ChamberForm, ChamberScalar,
                      S, T, W, W_INV, contract_generator, lie_derivative,
                      maurer_cartan_d)
from .bryant_salamon import (DT, BryantSalamon, HForm, InvariantField,
                             InvariantMetric, build_bryant_salamon,
                             build_metric, closure_mechanism_holds,
                             lemma_invariant_forms, metric_lie_derivative,
                             orbit_witness_holds, perturbed_form,
                             pointwise_rank_one_check, proposition_display)

__all__ = [
    "GENERATOR_NAMES", "SP1_MINUS", "SP1_PLUS", "LieFrame", "Quaternion",
    "QuatMat2", "build_lie_frame", "build_orthonormal_frame",
    "generator_coords", "is_subalgebra", "killing_matrix", "normalizer",
    "COFRAME_NAMES", "N_COFRAME", "ChamberForm", "ChamberScalar", "S", "T",
    "W", "W_INV", "contract_generator", "lie_derivative", "maurer_cartan_d",
    "DT", "BryantSalamon", "HForm", "InvariantField", "InvariantMetric",
    "build_bryant_salamon", "build_metric", "closure_mechanism_holds",
    "lemma_invariant_forms", "metric_lie_derivative", "orbit_witness_holds",
    "perturbed_form", "pointwise_rank_one_check", "proposition_display",
]

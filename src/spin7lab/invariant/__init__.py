"""Invariant calculus on the cohomogeneity-one chamber of the spinor bundle.

liealg builds sp(2) with exact structure constants, chamber provides the
polynomial coefficient ring Q[s, w, w^-1]/(w^5 - 1 - s^2) and
the 11-generator coframe calculus, and bryant_salamon assembles the
cohomogeneity-one 4-form, verifies its closedness, and runs the invariant
perturbation and Killing checks.
"""

"""spin7lab: exact verification of Cayley-form perturbations and the
Bryant-Salamon cohomogeneity-one structure.

Everything is computed over Q (and, for the cohomogeneity-one chamber, a
polynomial extension of it), so every claim checked here is an exact
identity, not a numerical approximation, and holds in Q(sqrt2, sqrt3) too.
"""

__version__ = "0.1.0"

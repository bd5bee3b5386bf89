"""Pytest configuration: one hypothesis profile for exact arithmetic.

Exact examples have very uneven per-example cost (a wedge of
dense 4-forms is orders of magnitude slower than a scalar product), so the
per-example deadline is disabled and the example counts are kept moderate.
Shrinking still works; only the wall-clock heuristics are relaxed.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")

"""Exact exterior algebra on R^8 over Q(sqrt2, sqrt3)."""

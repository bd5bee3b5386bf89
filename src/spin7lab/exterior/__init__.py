"""Exact exterior algebra on R^8 over Q."""

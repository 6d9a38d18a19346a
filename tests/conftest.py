"""Shared test settings: every hypothesis property test runs deterministically."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

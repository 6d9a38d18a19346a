"""Shared test settings: every hypothesis property test runs deterministically."""

import warnings

from hypothesis import settings

# hypothesis's pytest plugin imports this module to report a failing example;
# under the suite's "error" warning filter, the DeprecationWarning it raises
# on import (mypy_extensions.TypedDict) would abort the session instead
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

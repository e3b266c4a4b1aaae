"""Hypothesis settings shared by every test module.

pyproject.toml turns DeprecationWarning into an error. When a property
fails, hypothesis's pytest plugin imports libcst to suggest a patch, and
that import raises a DeprecationWarning (mypy_extensions.TypedDict), so the
run would end in INTERNALERROR without the falsifying example. libcst is
imported here once, with that warning ignored for the import alone; every
filter stays in force for the tests. The explain phase, which only adds
notes to a failure, is left out as well.
"""

import warnings

from hypothesis import Phase, settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

settings.register_profile("topodesc", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("topodesc")

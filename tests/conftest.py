"""Settings shared by every test module: BLAS threads and hypothesis's profile.

BLAS gets one thread unless the caller set one, as `import topodesc` does,
before anything imports numpy: a thread per CPU fights the row split's
pinned pool.

pyproject.toml turns DeprecationWarning into an error. When a property
fails, hypothesis's pytest plugin imports libcst to suggest a patch, and
that import raises a DeprecationWarning (mypy_extensions.TypedDict), so the
run would end in INTERNALERROR without the falsifying example. libcst is
imported here once, with that warning ignored for the import alone; every
filter stays in force for the tests. The explain phase, which only adds
notes to a failure, is left out as well.
"""

import os
import warnings

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from hypothesis import Phase, settings  # noqa: E402

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

settings.register_profile("topodesc", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("topodesc")

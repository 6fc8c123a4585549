"""Test configuration: Hypothesis draws the same examples on every run.

Each @given test is seeded from its own code, so the pass count of a run
cannot change from one run to the next through random draws.  Every test
keeps its own max_examples.  A failure prints the blob that reproduces it.
"""

import warnings

from hypothesis import settings

settings.register_profile("fourfold", derandomize=True, print_blob=True)
settings.load_profile("fourfold")

# Hypothesis imports this module while it reports a failing example, and the
# import (through libcst) warns DeprecationWarning; under filterwarnings =
# error that would abort the whole run instead of failing the one test.
# Importing it once here, with that warning ignored, leaves it cached.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is missing; Hypothesis then skips the patch
        pass

"""Test configuration: Hypothesis draws the same examples on every run.

Each @given test is seeded from its own code, so the pass count of a run
cannot change from one run to the next through random draws.  Every test
keeps its own max_examples.  A failure prints the blob that reproduces it.
"""

from hypothesis import settings

settings.register_profile("fourfold", derandomize=True, print_blob=True)
settings.load_profile("fourfold")

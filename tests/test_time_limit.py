"""The time_limit fixture: an overrun fails its own test and the session goes on."""

import signal
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="time_limit needs SIGALRM")
def test_an_overrun_fails_one_test(pytester):
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    # the whole-box sweep of positive definite E8 at bound 32 walks 33**7
    # prefixes and finds no vector of square -8, so it runs for hours.  An
    # alarm in a long loop like it once fired in a frame whose line number
    # read None, and formatting that traceback stopped the whole session
    pytester.makepyfile(
        """
        from fourfold import _pure

        EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))
        E8 = [
            2 if i == j else -((i, j) in EDGES or (j, i) in EDGES)
            for i in range(8) for j in range(8)
        ]

        def test_overruns(time_limit):
            time_limit(1)
            _pure.all_hits(E8, [0] * 8, 8, 32, -8)

        def test_runs_after():
            pass
        """
    )
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*test ran past 1 s*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")

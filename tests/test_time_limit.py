"""The time_limit fixture: an overrun fails its own test and the session goes on."""

import signal
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="time_limit needs SIGALRM")
def test_an_overrun_fails_one_test(pytester):
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    # trial division of a 28-digit semiprime, above the Miller-Rabin range,
    # runs for hours; the alarm once fired there in a frame whose line number
    # read None, and formatting that traceback stopped the whole session
    pytester.makepyfile(
        """
        from fourfold.obstruction import _PRIME_TEST_EXACT_BELOW, _divisors

        def test_overruns(time_limit):
            time_limit(1)
            n = (10**13 + 37) * (10**14 + 31)
            assert n > _PRIME_TEST_EXACT_BELOW
            _divisors(n)

        def test_runs_after():
            pass
        """
    )
    result = pytester.runpytest("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*test ran past 1 s*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")

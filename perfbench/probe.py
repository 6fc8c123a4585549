"""One set-up, timed from outside: import fourfold and write a workload's corpus.

    python3 perfbench/probe.py <workload> <directory>

run.py starts this several times and reports the median wall time from
interpreter start to exit as setup_s.
"""

import sys
from pathlib import Path

import corpus

if __name__ == "__main__":
    workload, directory = sys.argv[1], Path(sys.argv[2])
    corpus.write_files(corpus.records(workload), directory)

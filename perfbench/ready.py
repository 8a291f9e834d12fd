"""Set-up probe: import sbopt the way `sbo run` does and build problems.

Usage: python3 perfbench/ready.py PROBLEM [PROBLEM ...]

Prints the system-wide monotonic clock once everything is ready.  The
caller reads the same clock just before starting this interpreter, so the
difference is the set-up time a user pays on every `sbo run`: interpreter
start, the package import and `get_problem` for each named problem.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sbopt.bench.harness import run_experiment  # noqa: E402,F401  (the `sbo run` path)
from sbopt.bench.problems import get_problem  # noqa: E402

for name in sys.argv[1:]:
    get_problem(name)
print(repr(time.monotonic()))

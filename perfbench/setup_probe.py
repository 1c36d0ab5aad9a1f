"""Time the set-up a CLI invocation pays before it constructs anything.

Imports covdilate, then loads and gates every scenario file named on the
command line, and prints the elapsed seconds. Interpreter start-up is not
included. Run with ``PYTHONPATH=src`` from the repository root:

    PYTHONPATH=src python3 perfbench/setup_probe.py a.json b.json
"""

import sys
import time

t0 = time.perf_counter()
import covdilate  # noqa: E402  (the import is what is timed)
from covdilate.scenario import load_scenario  # noqa: E402

for path in sys.argv[1:]:
    load_scenario(path)
print(repr(time.perf_counter() - t0))

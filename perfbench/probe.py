"""Set-up probe: import quadint.cli and load a workload's problem files.

    python3 perfbench/probe.py FILE...

Prints one JSON line as soon as the inputs are loaded; the caller times the
interval from launching this interpreter to that line.
"""

import sys
import time

t0 = time.perf_counter()
from quadint import cli  # noqa: E402  (the import is what is being timed)

t1 = time.perf_counter()
for path in sys.argv[1:]:
    cli.load_problem(path)
t2 = time.perf_counter()

import json  # noqa: E402

import numpy  # noqa: E402

scipy = sys.modules.get("scipy")
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": getattr(scipy, "__version__", "not imported")}), flush=True)

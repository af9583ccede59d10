"""Locate the checkout the benchmark runs in and import the program from
its ``src/``, as the tier-1 tests do (``PYTHONPATH=src``, nothing
installed). Importing this module does that; it exits when ``src/sscirl``
is missing, so that a copy holding only the benchmark never measures some
other installed copy of the program.

It also sets ``SSCIRL_PURE_PYTHON=1``, before the program is imported and
for every process started from here on, so that the pure-Python episode
kernel is measured even when a compiled one was built into ``src/``.
``BENCHMARK`` is the parsed ``BENCHMARK.json``: the workload and metric
names are read from it, not repeated.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

if not (SRC / "sscirl" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program at {SRC / 'sscirl'}; run from a checkout of the repo")
os.environ["SSCIRL_PURE_PYTHON"] = "1"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

"""Put the benchmark's modules and the program's ``src`` on the path.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

"""Seeded request streams for the ``serve_miss`` workload.

The benchmark draws every request from ``--seed`` alone; the daemon sees
only the generated requests.  The stream is an infinite generator: a run
takes as many requests as its timed window allows, and the same seed
always yields the same sequence.  The generators live here rather than
reusing ``repro.serve.loadgen`` so that the benchmark's inputs cannot
change when the program under test changes.
"""

from __future__ import annotations

import random

#: The paper's five kernels, which run in well under a second each.
KERNELS = ("binary", "chebyshev", "dotproduct", "query", "romberg")

#: ``quarantine_after`` is execution-inert on clean runs but part of the
#: run key, so it gives each request a distinct cache entry.
MISS_WARMUP_BASE = 100
MISS_KEY_BASE = 1000


def miss_stream(seed: int):
    """Fresh keys in rounds: each round is a seeded permutation of the
    kernels, so any whole number of rounds has the same kernel mix."""
    rng = random.Random(seed)
    index = 0
    while True:
        for kernel in rng.sample(KERNELS, len(KERNELS)):
            yield {"tenant": f"miss-{index % 2}", "workload": kernel,
                   "config": {"quarantine_after": MISS_KEY_BASE + index},
                   "echo": f"miss:{seed}:{index}"}
            index += 1


def miss_warmup() -> list[dict]:
    """One throwaway miss per kernel, keyed apart from the stream."""
    return [{"tenant": "warmup", "workload": kernel,
             "config": {"quarantine_after": MISS_WARMUP_BASE + k},
             "echo": f"warmup:{k}"}
            for k, kernel in enumerate(KERNELS)]

"""Long-horizon memory: a long-lived executor must not retain per-task state.

MTTF campaigns keep one executor alive for hundreds of batches, so
anything it (or the inline worker path) keeps per task grows without
bound.  The check runs the same small batch many times through one
``SweepExecutor`` and compares ``tracemalloc``'s retained size after the
last batch with the size after an early, already-warm one.
"""

import gc
import tracemalloc

from repro.apps.synthetic import SyntheticApp
from repro.exec import SweepExecutor, TaskSpec

#: Batches run in total, and the batch after which the warm-up (first
#: calls filling lazily built module state) counts as over.
BATCHES = 150
WARM_BATCHES = 10

#: Allowed retained growth between the early and the last batch.  A
#: clean run measures within a few dozen bytes; one leaked pointer per
#: task over the (BATCHES - WARM_BATCHES) * 3 tasks measured is > 3 KiB.
SLACK_BYTES = 1024


def test_long_lived_executor_retains_nothing_per_task():
    app = SyntheticApp.bursty(seed=3)
    sizing = app.sizing()
    specs = [TaskSpec.reference(app, 10, seed, sizing=sizing)
             for seed in (1, 2, 3)]
    executor = SweepExecutor(jobs=1, dedup=False)
    tracemalloc.start()
    try:
        for batch in range(BATCHES):
            assert all(result.ok for result in executor.run(specs))
            if batch == WARM_BATCHES - 1:
                gc.collect()
                early, _peak = tracemalloc.get_traced_memory()
        gc.collect()
        late, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert late - early <= SLACK_BYTES, (
        f"retained memory grew {late - early} B over "
        f"{BATCHES - WARM_BATCHES} batches"
    )

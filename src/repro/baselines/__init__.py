"""The baseline fault-detection approach the paper compares against.

:class:`~repro.baselines.distance.DistanceFunctionMonitor` is the
state-of-the-art comparison of Table 3: arrival-pattern monitoring with
l-repetitive distance functions (Neukirchner et al., RTSS 2012), modified
for the paper's fail-silent fault model and driven by a polling timer
(the paper uses a 1 ms poll).  It *requires runtime timer support* (the
polling loop), which is exactly the resource the paper's approach avoids.
"""

from repro.baselines.distance import (
    DistanceBounds,
    DistanceFunctionMonitor,
    MonitorDetection,
    l_repetitive_bounds,
)

__all__ = [
    "MonitorDetection",
    "DistanceBounds",
    "DistanceFunctionMonitor",
    "l_repetitive_bounds",
]

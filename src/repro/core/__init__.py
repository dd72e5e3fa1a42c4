"""The paper's primary contribution: fault-tolerant arbitration channels.

* :class:`~repro.core.replicator.ReplicatorChannel` — Section 3.1 rules
  R1-R3 plus the occupancy- and divergence-based fault detection of
  Section 3.3, for ``n >= 2`` replicas;
* :class:`~repro.core.selector.SelectorChannel` — Section 3.1 rules S1-S3
  plus stall- and divergence-based fault detection, for ``n >= 2``
  replicas;
* :mod:`~repro.core.duplicate` — constructing the reference and
  replicated process networks of Figure 1 from one application
  blueprint;
* :mod:`~repro.core.equivalence` — runtime-checkable forms of Lemma 1 and
  Theorem 2;
* :mod:`~repro.core.overhead` — the memory/runtime overhead accounting of
  Table 2.
"""

from repro.core.detection import DetectionLog, FaultReport
from repro.core.replicator import ReplicatorChannel
from repro.core.selector import SelectorChannel
from repro.core.duplicate import (
    DuplicatedNetwork,
    NetworkBlueprint,
    ReferenceNetwork,
    build_duplicated,
    build_reference,
)
from repro.core.equivalence import (
    EquivalenceReport,
    check_equivalence,
    common_prefix_length,
    output_values_equal,
)
from repro.core.overhead import OverheadModel, OverheadReport
from repro.core.failsilent import LockstepProcess, ValueFaultInjector
from repro.core.multiport import (
    FaultCoordinator,
    MultiPortBlueprint,
    MultiPortNetwork,
    MultiPortSizing,
    build_multiport,
    size_multiport_network,
)

__all__ = [
    "LockstepProcess",
    "ValueFaultInjector",
    "FaultCoordinator",
    "MultiPortBlueprint",
    "MultiPortNetwork",
    "MultiPortSizing",
    "build_multiport",
    "size_multiport_network",
    "DetectionLog",
    "FaultReport",
    "ReplicatorChannel",
    "SelectorChannel",
    "DuplicatedNetwork",
    "NetworkBlueprint",
    "ReferenceNetwork",
    "build_duplicated",
    "build_reference",
    "EquivalenceReport",
    "check_equivalence",
    "common_prefix_length",
    "output_values_equal",
    "OverheadModel",
    "OverheadReport",
]

"""Model of the Intel Single-chip Cloud Computer (SCC) platform.

The paper validates its framework on the 48-core SCC in baremetal mode
(Section 4.1): 24 tiles in a 6x4 mesh, two IA-32 cores per tile, on-die
message-passing buffers (MPB), XY-routed packet mesh, per-core timestamp
counters (TSC) synchronised at boot, and the iRCCE communication library
restricted to <= 3 KB chunks so all traffic stays in the MPBs.

This package reproduces that platform as a *timing model* feeding the KPN
simulator: given a process-to-core mapping, it computes the communication
latency of every token from its size, the XY route between the cores, and
the chunking behaviour of the MPB path.  It also provides the
low-contention mapping strategy of the paper's reference [13] (one process
per tile, placed to minimise route overlap at the mesh routers) and the
boot-time clock synchronisation that makes cross-core timestamps
comparable.  The re-exports load their submodule on first use, so the
recovery path's respawn placement loads only the mapper and the mesh it
routes on, not the chip, MPB, contention or RCCE models.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(["Core", "Tile", "TOPOLOGY", "Topology"], "geometry"),
    **dict.fromkeys(["ClockDomain", "TscClock", "synchronize"], "clock"),
    **dict.fromkeys(["Mesh", "Route"], "mesh"),
    "MpbModel": "mpb",
    **dict.fromkeys(["SccChip", "SccConfig"], "chip"),
    **dict.fromkeys(["Mapping", "low_contention_mapping", "place_respawn",
                     "route_overlap"], "mapping"),
    **dict.fromkeys(["ContentionModel", "LinkState"], "contention"),
    "RcceComm": "rcce",
})

__all__ = [
    "Core",
    "Tile",
    "TOPOLOGY",
    "Topology",
    "ClockDomain",
    "TscClock",
    "synchronize",
    "Mesh",
    "Route",
    "MpbModel",
    "SccChip",
    "SccConfig",
    "Mapping",
    "low_contention_mapping",
    "place_respawn",
    "route_overlap",
    "RcceComm",
    "ContentionModel",
    "LinkState",
]

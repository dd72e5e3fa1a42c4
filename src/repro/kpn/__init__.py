"""Deterministic discrete-event simulator for Kahn process networks.

The paper's framework operates on *real time process networks*: dataflow
graphs of processes communicating over bounded FIFO channels with blocking
read/write semantics (Section 2).  This package provides that substrate as
a deterministic discrete-event simulation:

* :class:`~repro.kpn.simulator.Simulator` — the event engine (virtual time,
  total event order, reproducible tie-breaking);
* :class:`~repro.kpn.process.Process` — generator-based processes that
  yield :class:`~repro.kpn.operations.Read` / ``Write`` / ``Delay``
  operations;
* :class:`~repro.kpn.channel.Fifo` — bounded FIFO channels with blocking
  semantics, optional transfer latency (fed by the SCC model) and fill
  instrumentation;
* :class:`~repro.kpn.network.Network` — the process-network graph with
  structural validation;
* :mod:`~repro.kpn.trace` — token event traces used for calibration
  (Eq. 2) and for the observed-fill rows of Table 2.
"""

from repro.kpn.errors import KpnError, ProtocolError, SimulationError
from repro.kpn.operations import Delay, Halt, Operation, Read, Write
from repro.kpn.tokens import Token
from repro.kpn.channel import Fifo, ReadEndpoint, WriteEndpoint
from repro.kpn.process import (
    FunctionProcess,
    PacedRelay,
    PeriodicConsumer,
    PeriodicSource,
    Process,
    RecordingSink,
    pjd_schedule,
)
from repro.kpn.network import Network
from repro.kpn.simulator import ProcessHandle, ProcessState, Simulator
from repro.kpn.trace import ChannelTrace, EventRecord, TraceRecorder

__all__ = [
    "KpnError",
    "ProtocolError",
    "SimulationError",
    "Delay",
    "Halt",
    "Operation",
    "Read",
    "Write",
    "Token",
    "Fifo",
    "ReadEndpoint",
    "WriteEndpoint",
    "FunctionProcess",
    "PacedRelay",
    "pjd_schedule",
    "PeriodicConsumer",
    "PeriodicSource",
    "Process",
    "RecordingSink",
    "Network",
    "ProcessHandle",
    "ProcessState",
    "Simulator",
    "ChannelTrace",
    "EventRecord",
    "TraceRecorder",
]

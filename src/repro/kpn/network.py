"""Process-network container: processes + channels + wiring validation.

A :class:`Network` is a convenience builder over the simulator: it owns the
processes and channels of one dataflow graph, validates the wiring (every
FIFO endpoint used by exactly one process), creates per-channel traces from
a shared :class:`~repro.kpn.trace.TraceRecorder`, and instantiates
everything into a :class:`~repro.kpn.simulator.Simulator`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.kpn.channel import Fifo
from repro.kpn.errors import ProtocolError
from repro.kpn.process import Process
from repro.kpn.simulator import Simulator
from repro.kpn.tokens import Token
from repro.kpn.trace import TraceRecorder


class Network:
    """A named collection of processes and channels forming one graph."""

    def __init__(
        self,
        name: str,
        recorder: Optional[TraceRecorder] = None,
        metrics=None,
    ) -> None:
        self.name = name
        self.recorder = recorder or TraceRecorder()
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` threaded
        #: into every FIFO built here and into the simulator at
        #: instantiation time.
        self.metrics = metrics
        self.processes: Dict[str, Process] = {}
        self.channels: Dict[str, object] = {}

    # -- construction -----------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Register a process; names must be unique within the network."""
        if process.name in self.processes:
            raise ProtocolError(f"duplicate process {process.name}")
        self.processes[process.name] = process
        return process

    def add_fifo(
        self,
        name: str,
        capacity: int,
        transfer_latency: Optional[Callable[[Token], float]] = None,
        initial_tokens: Tuple[Token, ...] = (),
    ) -> Fifo:
        """Create and register a plain bounded FIFO channel."""
        fifo = Fifo(
            name,
            capacity,
            transfer_latency=transfer_latency,
            trace=self.recorder.channel(name),
            initial_tokens=initial_tokens,
            metrics=self.metrics,
        )
        return self.add_channel(fifo)

    def add_channel(self, channel) -> object:
        """Register an externally constructed channel (e.g. a replicator or
        selector from :mod:`repro.core`)."""
        if channel.name in self.channels:
            raise ProtocolError(f"duplicate channel {channel.name}")
        self.channels[channel.name] = channel
        return channel

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check that every process has its endpoints connected.

        Processes expose optional ``input`` / ``output`` attributes (the
        standard shapes) — any left ``None`` is an error.  Application
        processes with custom endpoint attributes perform their own checks
        at behaviour start; this catches the common mistakes early.
        """
        for process in self.processes.values():
            for attr in ("input", "output"):
                if hasattr(process, attr) and getattr(process, attr) is None:
                    raise ProtocolError(
                        f"{self.name}: process {process.name} has "
                        f"unconnected endpoint '{attr}'"
                    )

    # -- instantiation ---------------------------------------------------------

    def instantiate(self, sim: Optional[Simulator] = None) -> Simulator:
        """Bind channels and register processes into a simulator (a
        fresh one carrying this network's metrics unless ``sim`` is
        given)."""
        self.validate()
        if sim is None:
            sim = Simulator(metrics=self.metrics)
        for channel in self.channels.values():
            channel.bind(sim)
        for process in self.processes.values():
            sim.register(process)
        return sim

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ):
        """Instantiate into a fresh simulator and run to quiescence."""
        sim = self.instantiate()
        stats = sim.run(until=until, max_events=max_events)
        return sim, stats

    def process(self, name: str) -> Process:
        """Look up a process by name."""
        return self.processes[name]

    def to_dot(self) -> str:
        """Render the network as a Graphviz digraph.

        Processes become boxes, channels become ellipses; edges are
        derived from the endpoint attributes the standard process shapes
        expose (``input``/``output``/``inputs``/``outputs``).  Handy for
        documentation and for debugging wiring mistakes visually.
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for name in self.processes:
            lines.append(f'  "{name}" [shape=box];')
        for name in self.channels:
            lines.append(f'  "{name}" [shape=ellipse, style=dashed];')

        def endpoint_edges(process):
            edges = []
            for attr, direction in (("input", "in"), ("output", "out")):
                endpoint = getattr(process, attr, None)
                if endpoint is not None:
                    edges.append((endpoint, direction))
            for attr, direction in (("inputs", "in"), ("outputs", "out")):
                endpoints = getattr(process, attr, None)
                if isinstance(endpoints, list):
                    edges.extend(
                        (e, direction) for e in endpoints if e is not None
                    )
            return edges

        for name, process in self.processes.items():
            for endpoint, direction in endpoint_edges(process):
                channel = endpoint.channel.name
                if direction == "in":
                    lines.append(f'  "{channel}" -> "{name}";')
                else:
                    lines.append(f'  "{name}" -> "{channel}";')
        lines.append("}")
        return "\n".join(lines)

    # -- reporting ----------------------------------------------------------

    def max_fills(self) -> Dict[str, int]:
        """Max observed fill per channel (Table 2 row)."""
        return self.recorder.max_fills()

    def __repr__(self) -> str:
        return (
            f"Network({self.name}, {len(self.processes)} processes, "
            f"{len(self.channels)} channels)"
        )

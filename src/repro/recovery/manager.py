"""The closed-loop countermeasure: kill, respawn, re-prime.

The :class:`RecoveryManager` subscribes to a duplicated network's
:class:`~repro.core.detection.DetectionLog`.  On the first detection it
schedules the countermeasure ``response_ms`` later (virtual time) and
then, atomically at one virtual instant:

1. **kill** — every still-alive process of the faulty replica's current
   generation is killed (fail-stop semantics of the condemned replica);
2. **quarantine** — the selector keeps (or starts) discarding writes on
   the faulty interface, so a half-dead replica can never corrupt the
   output stream;
3. **replicator re-prime** — the faulty input queue is flushed, its read
   counter is fast-forwarded to the producer's write counter (the
   respawned replica starts at the live input frontier) and the fault
   flag is cleared; the consumption-divergence check stays muted until
   the healthy replica's read counter has caught back up;
4. **selector handover** — the healthy replica must deliver every token
   up to the handover point *solo* (the faulty replica never saw them).
   The selector counts the obligation and completes recovery at the
   exact write that fulfils it: ``writes/space`` of the recovered
   interface are re-primed from the channel invariant and the fault flag
   is cleared, after which rule S1-S3 pairing resumes seamlessly.  With
   ``reprime=False`` (the deliberately broken countermeasure) the fault
   flag is cleared *without* re-priming — the stale ``space`` counter
   then drifts past the capacity bound and the post-recovery stall
   detection exposes the bug, which is exactly what the campaign
   self-test asserts;
5. **respawn** — a fresh generation of the critical subnetwork
   (``R<i>r<generation>``) is built from the application blueprint,
   bound into the running simulator, and placed on spare tiles of the
   6x4 SCC mesh (bookkeeping only — placement never affects virtual
   time).

Everything happens in-band with deterministic (time, seq) event
ordering, so recovery runs are as replayable as fault-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.detection import FaultReport
from repro.core.duplicate import DuplicatedNetwork, NetworkBlueprint
from repro.recovery.spec import RecoverySpec


@dataclass
class RecoveryAttempt:
    """Record of one detection -> countermeasure -> completion cycle."""

    replica: int
    detected_at: float
    site: str
    mechanism: str
    generation: int = 0
    countermeasure_at: Optional[float] = None
    handover: Optional[int] = None
    flushed: Optional[int] = None
    killed: Tuple[str, ...] = ()
    respawned: Tuple[str, ...] = ()
    #: Spare-core placement of the respawned generation: name -> core id.
    spare_cores: Dict[str, int] = field(default_factory=dict)
    completed_at: Optional[float] = None
    reprimed: bool = True

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    def mttr_ms(self) -> Optional[float]:
        """Detection-to-restoration latency of this attempt."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.detected_at

    def as_dict(self) -> Dict[str, object]:
        return {
            "replica": self.replica,
            "detected_at": self.detected_at,
            "site": self.site,
            "mechanism": self.mechanism,
            "generation": self.generation,
            "countermeasure_at": self.countermeasure_at,
            "handover": self.handover,
            "flushed": self.flushed,
            "killed": list(self.killed),
            "respawned": list(self.respawned),
            "spare_cores": dict(self.spare_cores),
            "completed_at": self.completed_at,
            "reprimed": self.reprimed,
        }


def _graph_channels(processes) -> List[Tuple[str, str]]:
    """(writer, reader) process pairs derived from endpoint attributes.

    Mirrors :meth:`repro.kpn.network.Network.to_dot`: the standard
    process shapes expose ``input``/``output``/``inputs``/``outputs``
    endpoints whose ``.channel.name`` identifies the shared channel.
    """
    writers: Dict[str, List[str]] = {}
    readers: Dict[str, List[str]] = {}

    def endpoints(process):
        found = []
        for attr, direction in (("input", "in"), ("output", "out")):
            endpoint = getattr(process, attr, None)
            if endpoint is not None:
                found.append((endpoint, direction))
        for attr, direction in (("inputs", "in"), ("outputs", "out")):
            eps = getattr(process, attr, None)
            if isinstance(eps, list):
                found.extend((e, direction) for e in eps if e is not None)
        return found

    for process in processes:
        for endpoint, direction in endpoints(process):
            name = endpoint.channel.name
            target = writers if direction == "out" else readers
            target.setdefault(name, []).append(process.name)

    edges: List[Tuple[str, str]] = []
    for channel, sources in writers.items():
        for src in sources:
            for dst in readers.get(channel, ()):
                edges.append((src, dst))
    return edges


class RecoveryManager:
    """Arms one :class:`RecoverySpec` on one duplicated-network run.

    Parameters
    ----------
    spec:
        The countermeasure policy.
    blueprint:
        The application blueprint used to respawn fresh generations of
        the critical subnetwork.
    duplicated:
        The assembled duplicated network (channels + replica handles).
    topology:
        SCC topology used for spare-tile placement (defaults to the
        6x4 mesh); placement is skipped when the baseline network does
        not fit.
    """

    def __init__(
        self,
        spec: RecoverySpec,
        blueprint: NetworkBlueprint,
        duplicated: DuplicatedNetwork,
        topology=None,
    ) -> None:
        self.spec = spec
        self.blueprint = blueprint
        self.duplicated = duplicated
        self.attempts: List[RecoveryAttempt] = []
        self._topology = topology
        self._mapping = None
        self._placement_failed = False
        self._generation = [0, 0]
        self._active: Optional[RecoveryAttempt] = None
        self._sim = None

    # -- wiring -------------------------------------------------------------

    def attach(self, sim) -> None:
        """Subscribe to the detection log of the running simulation."""
        self._sim = sim
        self.duplicated.detection_log.subscribe(self._on_detection)

    def is_recovering(self, replica: int) -> bool:
        """True while a countermeasure for ``replica`` is in flight."""
        active = self._active
        return (active is not None and active.replica == replica
                and not active.completed)

    @property
    def completed(self) -> int:
        return sum(1 for attempt in self.attempts if attempt.completed)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable run summary (shipped in task results)."""
        return {
            "spec": self.spec.as_dict(),
            "attempts": [attempt.as_dict() for attempt in self.attempts],
            "completed": self.completed,
        }

    # -- detection observer -------------------------------------------------

    def _on_detection(self, report: FaultReport) -> None:
        if self._sim is None:
            return
        if self._active is not None and not self._active.completed:
            return  # countermeasure already in flight
        if len(self.attempts) >= self.spec.max_recoveries:
            return  # recovery budget exhausted; detection stays recorded
        attempt = RecoveryAttempt(
            replica=report.replica,
            detected_at=report.time,
            site=report.site,
            mechanism=report.mechanism,
            reprimed=self.spec.reprime,
        )
        self._active = attempt
        self.attempts.append(attempt)
        # Mutating the network mid-poll would corrupt channel state; a
        # scheduled callback fires between process advances instead.
        self._sim.schedule(
            self.spec.response_ms, lambda: self._countermeasure(attempt)
        )

    # -- the countermeasure --------------------------------------------------

    def _countermeasure(self, attempt: RecoveryAttempt) -> None:
        sim = self._sim
        dup = self.duplicated
        faulty = attempt.replica
        now = sim.now
        attempt.countermeasure_at = now

        # 1. Kill the condemned generation (fail-stop faults already
        # killed some of it; re-killing a KILLED handle would re-fire
        # teardown hooks, so only alive processes are killed here).
        killed = []
        for process in dup.replicas[faulty]:
            handle = sim.handle(process.name)
            if handle.alive:
                sim.kill(process.name)
            killed.append(process.name)
        attempt.killed = tuple(killed)

        # 2. Quarantine at the selector: writes on the faulty interface
        # are discarded and parked writers released (killed handles are
        # ignored by the retry machinery).
        dup.selector.quarantine(faulty)

        if not self.spec.respawn:
            # Fail-safe isolation only — the paper's baseline tolerance.
            # The replica stays condemned; no counters change.
            self._active = None
            return

        # 3. Replicator re-prime: flush the stale queue and fast-forward
        # the read counter to the producer frontier.
        handover = dup.replicator.writes
        attempt.handover = handover
        attempt.flushed = dup.replicator.reprime(faulty)

        # 4. Selector handover (or the deliberately broken variant).
        if self.spec.reprime:
            dup.selector.begin_recovery(
                faulty,
                handover,
                now,
                on_complete=lambda time, a=attempt: self._completed(a, time),
            )
        else:
            # Broken countermeasure: clear the flag, skip the re-prime.
            # writes/space of the recovered interface stay stale, which
            # the post-recovery-equivalence oracle must expose.
            dup.selector.unquarantine(faulty)
            self._completed(attempt, now)

        # 5. Respawn a fresh generation on spare cores.
        self._respawn(attempt)

    def _completed(self, attempt: RecoveryAttempt, time: float) -> None:
        attempt.completed_at = time
        if self._active is attempt:
            self._active = None

    def _respawn(self, attempt: RecoveryAttempt) -> None:
        sim = self._sim
        dup = self.duplicated
        faulty = attempt.replica
        self._generation[faulty] += 1
        attempt.generation = self._generation[faulty]
        prefix = f"R{faulty + 1}r{self._generation[faulty]}"
        net = dup.network
        channels_before = set(net.channels)
        processes = self.blueprint.make_critical(
            net,
            prefix,
            faulty,
            dup.replicator.reader(faulty),
            dup.selector.writer(faulty),
        )
        for name, channel in net.channels.items():
            if name not in channels_before:
                channel.bind(sim)
        for process in processes:
            sim.register(process)
        dup.replicas[faulty] = processes
        attempt.respawned = tuple(p.name for p in processes)
        attempt.spare_cores = self._place(attempt, processes)

    # -- SCC spare-core placement -------------------------------------------

    def _place(self, attempt: RecoveryAttempt,
               processes) -> Dict[str, int]:
        if not self.spec.spare_placement or self._placement_failed:
            return {}
        from repro.scc.mapping import low_contention_mapping, place_respawn

        dup = self.duplicated
        try:
            if self._mapping is None:
                baseline = [
                    p for p in dup.network.processes.values()
                    if p.name not in set(attempt.respawned)
                ]
                self._mapping = low_contention_mapping(
                    [p.name for p in baseline],
                    _graph_channels(baseline),
                )
            edges = _graph_channels(dup.network.processes.values())
            try:
                cores = place_respawn(
                    self._mapping, attempt.respawned, edges
                )
            except ValueError:
                # No spare tiles left: reclaim the condemned
                # generation's tiles, then place.
                for name in attempt.killed:
                    self._mapping.assignment.pop(name, None)
                cores = place_respawn(
                    self._mapping, attempt.respawned, edges
                )
            else:
                # Placement succeeded on genuine spares; the condemned
                # tiles become available for later attempts.
                for name in attempt.killed:
                    self._mapping.assignment.pop(name, None)
            return cores
        except ValueError:
            # The application does not fit the mesh with a spare
            # generation — record nothing rather than fail the run
            # (placement is bookkeeping, not semantics).
            self._placement_failed = True
            return {}

"""Saving and loading token-event traces.

Calibration (Eq. 2) in a real deployment starts from traces captured on
the target; this module is the interchange layer: a
:class:`~repro.kpn.trace.TraceRecorder`'s events can be exported to JSON
(full fidelity: per-channel event lists) or to a plain timestamp file
(one float per line, the format ``python -m repro calibrate`` reads),
and loaded back for offline analysis.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.kpn.trace import ChannelTrace, EventRecord, TraceRecorder

FORMAT_VERSION = 1


def recorder_to_dict(recorder: TraceRecorder) -> Dict:
    """Serialise every channel's events into plain data."""
    return {
        "version": FORMAT_VERSION,
        "channels": {
            name: {
                "max_fill": recorder[name].max_fill,
                "events": [
                    {
                        "time": event.time,
                        "kind": event.kind,
                        "seqno": event.seqno,
                        "interface": event.interface,
                    }
                    for event in recorder[name].events
                ],
            }
            for name in recorder.names()
        },
    }


def save_recorder(recorder: TraceRecorder, path: str) -> None:
    """Write a recorder's traces to a JSON file."""
    with open(path, "w") as handle:
        json.dump(recorder_to_dict(recorder), handle)


def load_recorder(path: str) -> TraceRecorder:
    """Load traces saved by :func:`save_recorder`: each channel's
    ``max_fill`` and event list, exactly as saved."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported trace file version "
            f"{data.get('version')!r} (this build reads version "
            f"{FORMAT_VERSION})"
        )
    recorder = TraceRecorder(record_events=True)
    for name, channel in data["channels"].items():
        trace = recorder.channel(name)
        trace.max_fill = channel["max_fill"]
        for event in channel["events"]:
            trace.events.append(
                EventRecord(
                    time=event["time"],
                    kind=event["kind"],
                    seqno=event["seqno"],
                    interface=event["interface"],
                )
            )
    return recorder


def save_timestamps(timestamps: List[float], path: str) -> None:
    """Write a plain one-timestamp-per-line file (``repro calibrate``
    input format)."""
    with open(path, "w") as handle:
        for value in timestamps:
            handle.write(f"{value!r}\n")


def load_timestamps(path: str) -> List[float]:
    """Read a plain timestamp file."""
    with open(path) as handle:
        return [float(line) for line in handle.read().split()
                if line.strip()]


def channel_timestamps(
    trace: ChannelTrace,
    kind: str = "write",
    interface: Optional[int] = None,
) -> List[float]:
    """Extract one event stream's timestamps from a channel trace."""
    return [
        event.time
        for event in trace.events
        if event.kind == kind
        and (interface is None or event.interface == interface)
    ]

"""Shared test helpers: a small synthetic application.

The synthetic app has the same topology as Figure 1 with a single paced
relay as the critical subnetwork — fast to simulate, uses the MJPEG
timing models of Table 1 scaled down.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.duplicate import NetworkBlueprint
from repro.kpn.network import Network
from repro.kpn.process import PacedRelay, PeriodicConsumer, PeriodicSource
from repro.rtc.pjd import PJD
from repro.rtc.sizing import SizingResult, size_duplicated_network

PRODUCER = PJD(10.0, 1.0, 10.0)
CONSUMER = PJD(10.0, 1.0, 10.0)
REPLICA_MODELS = [PJD(10.0, 2.0, 10.0), PJD(10.0, 8.0, 10.0)]


def synthetic_sizing() -> SizingResult:
    return size_duplicated_network(
        PRODUCER, REPLICA_MODELS, REPLICA_MODELS, CONSUMER
    )


def synthetic_blueprint(tokens: int, consumer_tokens: int,
                        seed: int = 1) -> NetworkBlueprint:
    def make_producer(net: Network):
        return net.add_process(
            PeriodicSource(
                "P", PRODUCER, tokens,
                payload=lambda i: (i * 13 % 101, 64),
                seed=seed * 10 + 1,
            )
        )

    def make_consumer(net: Network):
        return net.add_process(
            PeriodicConsumer("C", CONSUMER, consumer_tokens,
                             seed=seed * 10 + 2)
        )

    def make_critical(net: Network, prefix: str, variant: int,
                      input_ep, output_ep) -> List:
        relay = net.add_process(
            PacedRelay(
                f"{prefix}/stage", REPLICA_MODELS[variant],
                seed=seed * 10 + 100 + variant,
            )
        )
        relay.input = input_ep
        relay.output = output_ep
        return [relay]

    return NetworkBlueprint(
        name="synthetic",
        make_producer=make_producer,
        make_critical=make_critical,
        make_consumer=make_consumer,
    )


def general_bodies(channel):
    """Route a replicator's or selector's polls through the general
    bodies that ``n > 2`` channels install, the reference for the
    two-replica class-level bodies."""
    channel.poll_read = channel._poll_read_n
    channel.poll_write = channel._poll_write_n
    return channel

"""Byte-exact pin over the Section 3.4 sizing solver.

Every duplicated network is sized at design time by the Eq. 3-8 solvers
in :mod:`repro.rtc`, and the capacities, thresholds and latency bounds
they return parameterise the replicator and selector channels.  This
test hashes ``repr(SizingResult)`` for a fixed corpus of model sets into
one SHA-256 digest:

* ~300 randomized synthetic applications (smooth, jittery and bursty
  regimes, one period per application);
* ~50 bursty synthetic applications over a grid of periods and burst
  sizes;
* the Table 1 media applications and their jitter-minimised copies.

The digest was taken before the curve solvers were vectorised; a
mismatch means a solver changed its output.  Never regenerate the digest
to make a change pass.
"""

import hashlib
import random

from repro.apps import ALL_APPLICATIONS, SyntheticApp
from repro.rtc.sizing import _size_duplicated_network_impl

SIZING_DIGEST = (
    "723b97d13515a010f9c4ecc331e6cedbd495839d5be31515f130d138f666478c"
)

RANDOMIZED_APPS = 300
BURSTY_PERIODS = (4.0, 6.5, 10.0, 12.25, 16.0)
BURSTY_SIZES = range(2, 12)


def _corpus():
    rng = random.Random(0)
    for _ in range(RANDOMIZED_APPS):
        yield SyntheticApp.randomized(rng)
    for period in BURSTY_PERIODS:
        for burst in BURSTY_SIZES:
            yield SyntheticApp.bursty(period=period, burst=burst)
    for app_cls in ALL_APPLICATIONS:
        app = app_cls()
        yield app
        yield app.minimized()


def sizing_digest() -> str:
    digest = hashlib.sha256()
    for app in _corpus():
        result = _size_duplicated_network_impl(
            app.producer_model,
            app.replica_input_models,
            app.replica_output_models,
            app.consumer_model,
            None,
        )
        digest.update(repr(result).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_sizing_digest_pinned():
    assert sizing_digest() == SIZING_DIGEST

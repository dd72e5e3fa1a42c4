"""Shared test fixtures."""

import pytest

from repro.exec.cache import CACHE_DIR_ENV


@pytest.fixture(autouse=True)
def _isolated_result_cache(monkeypatch, tmp_path_factory):
    """Point the sweep result cache away from the repository.

    CLI-level tests drive ``repro tables`` / ``repro reproduce`` with
    caching enabled by default; without this, running the suite from the
    repo root would litter ``.repro-cache/`` into the checkout and —
    worse — let one test's cached results leak into another's run.
    """
    monkeypatch.setenv(
        CACHE_DIR_ENV, str(tmp_path_factory.mktemp("repro-cache"))
    )


@pytest.fixture
def pinned_gates(monkeypatch):
    """Pin both paired-gate measurements of the benchmark harness.

    The real ones time interleaved sweeps (one side forks worker pools),
    so harness plumbing tests read these values instead; set
    ``pinned_gates["obs"]`` (percent) or ``pinned_gates["gain"]`` to
    drive a gate.
    """
    import repro.tools.bench_compare as bc

    values = {"obs": 0.0, "gain": 2 * bc.SWEEP_GAIN_MIN}
    monkeypatch.setattr(bc, "measure_obs_overhead", lambda: values["obs"])
    monkeypatch.setattr(bc, "measure_sweep_gain", lambda: values["gain"])
    return values

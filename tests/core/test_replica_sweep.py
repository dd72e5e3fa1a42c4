"""Pin of the replica-count sweep (``benchmarks/bench_nway_redundancy.py``).

n = 2, 3, 4 replicas of one synthetic stage, replica 1 killed at
t = 400 ms: the resource bill grows with n while the first fault is
detected equally fast and the consumer never stalls.
"""

import importlib.util
import pathlib

import pytest

BENCH = (pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
         / "bench_nway_redundancy.py")

#: n -> (FIFO slots, priming, D, first-fault latency ms, stalls, tokens)
SWEEP = {
    2: (12, 2, 3, 10.487277843, 0, 120),
    3: (18, 2, 3, 10.487277843, 0, 120),
    4: (24, 2, 4, 10.487277843, 0, 120),
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_nway_redundancy",
                                                  BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", sorted(SWEEP))
def test_sweep_row(bench, n):
    row = bench._one_configuration(n, seed=7)
    assert row["n"] == n and row["fault budget"] == n - 1
    assert (
        row["fifo slots"],
        row["priming"],
        row["D"],
        round(row["first-fault latency (ms)"], 9),
        row["consumer stalls"],
        row["tokens delivered"],
    ) == SWEEP[n]

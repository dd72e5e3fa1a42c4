"""Self-tests of the benchmark at the ``tiny`` size (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Each workload must pass its output checks traced and untraced, report
identical deterministic counts in both (``run.py --trace 1`` alternates
the two and requires it), and print exactly the metrics BENCHMARK.json
declares.  The cold-start guard must refuse a warm process, and the
benchmark must fail without printing a result where there is no program
to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, ColdStartError  # noqa: E402


def _declared(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"] for metric in json.load(fh)[kind]}


def _run(workload: str, trace: int, cwd: str = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


class TinyWorkloads(unittest.TestCase):

    def check(self, workload: str, trace: int, declared: str) -> None:
        done = _run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), _declared(declared))

    def test_untraced(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, "end_to_end")

    def test_traced_counts_match_untraced(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, "per_layer")


def _clear_rtc_memos() -> None:
    from repro.rtc import minplus, pjd, sizing

    sizing._size_duplicated_network_cached.cache_clear()
    minplus.clear_curve_op_caches()
    pjd._upper_curve.cache_clear()
    pjd._lower_curve.cache_clear()


class ColdStartGuard(unittest.TestCase):

    def setUp(self) -> None:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        _clear_rtc_memos()

    def test_warm_rtc_memo_is_refused(self) -> None:
        workload = WORKLOADS["horizon"](3, "tiny")
        workload.guard()
        workload.run()
        with self.assertRaises(ColdStartError):
            workload.guard()

    def test_warm_app_memo_is_refused(self) -> None:
        workload = WORKLOADS["media-cold"](3, "tiny")
        workload.guard()
        workload.run()
        _clear_rtc_memos()
        with self.assertRaises(ColdStartError):
            workload.guard()

    def test_result_cache_is_refused(self) -> None:
        workload = WORKLOADS["campaign"](3, "tiny")
        workload.config.cache = object()
        try:
            with self.assertRaises(ColdStartError):
                workload.guard()
        finally:
            workload.ledger.close()
            workload._tmp.cleanup()


class NothingToMeasure(unittest.TestCase):

    def test_fails_without_a_result(self) -> None:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            done = _run("horizon", 0, cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

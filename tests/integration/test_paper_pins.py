"""Paper-level refactor guards: Tables 2/3, a campaign digest, an MTTF triple.

The golden traces pin the engine's event streams; these pins sit one
level up and pin what a user reads:

* the ``repro tables --which 2 3`` text for two applications at a size
  that runs in seconds;
* the verdict digest of a seeded synthetic fault-injection campaign
  (self-test scenarios included, so oracle behaviour is pinned too);
* the MTTF / MTTR / availability triple of a seeded
  ``repro campaign --mttf`` run, compared as exact float reprs.

A refactor that claims "same outputs" must leave all three unchanged.
Regenerating them is only legitimate when a change *deliberately* alters
paper-level results, in the same commit that justifies it::

    PYTHONPATH=src python tests/integration/test_paper_pins.py --capture
"""

import json
import os
import sys

from repro.campaign.engine import CampaignConfig, run_campaign
from repro.cli import main

PIN_DIR = os.path.join(os.path.dirname(__file__), "golden_pins")

TABLES_ARGV = ["tables", "--which", "2", "3", "--apps", "adpcm", "mjpeg",
               "--runs", "2", "--warmup", "10", "--no-cache"]
CAMPAIGN = dict(seed=7, budget=12, self_tests=True, shrink=False)
MTTF_ARGV = ["campaign", "--mttf", "--seed", "11", "--max-cycles", "16",
             "--min-cycles", "6", "--mttf-window", "4",
             "--mttf-rel-tol", "0.2", "--no-cache"]


def _tables_text(capsys) -> str:
    assert main(TABLES_ARGV) == 0
    return capsys.readouterr().out


def _campaign_pin() -> dict:
    result = run_campaign(CampaignConfig(**CAMPAIGN))
    return {"digest": result.digest(),
            "verdicts": result.verdict_counts()}


def _mttf_pin(out_dir) -> dict:
    assert main(MTTF_ARGV + ["--out-dir", str(out_dir)]) == 0
    with open(os.path.join(out_dir, "mttf-report.json")) as handle:
        mttf = json.load(handle)["mttf"]
    return {key: repr(mttf[key])
            for key in ("mttf_ms", "mttr_ms", "availability")}


def _read(name: str) -> str:
    with open(os.path.join(PIN_DIR, name)) as handle:
        return handle.read()


def test_tables_2_3_text_is_pinned(capsys):
    assert _tables_text(capsys) == _read("tables23.txt")


def test_campaign_digest_is_pinned():
    assert _campaign_pin() == json.loads(_read("campaign.json"))


def test_mttf_triple_is_pinned(tmp_path, capsys):
    pin = _mttf_pin(tmp_path)
    capsys.readouterr()
    assert pin == json.loads(_read("mttf.json"))


def _capture() -> None:
    import contextlib
    import io
    import tempfile

    os.makedirs(PIN_DIR, exist_ok=True)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(TABLES_ARGV) == 0
    pins = {"tables23.txt": buffer.getvalue(),
            "campaign.json": json.dumps(_campaign_pin(), indent=2,
                                        sort_keys=True) + "\n"}
    with tempfile.TemporaryDirectory() as out_dir, \
            contextlib.redirect_stdout(io.StringIO()):
        pins["mttf.json"] = json.dumps(_mttf_pin(out_dir), indent=2,
                                       sort_keys=True) + "\n"
    for name, text in pins.items():
        path = os.path.join(PIN_DIR, name)
        with open(path, "w") as handle:
            handle.write(text)
        print(f"captured {path}")


if __name__ == "__main__":
    if "--capture" in sys.argv:
        _capture()
    else:
        print(__doc__)

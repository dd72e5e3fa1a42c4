"""Smoke tests: the example scripts must stay runnable.

The fast examples run end to end; the slower ones are import-checked
(their heavy work happens in main()).  The examples that tell a fault
story print deterministically, and their whole stdout is pinned against
``tests/example_outputs/<name>.txt``.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
PINNED_OUTPUTS = pathlib.Path(__file__).resolve().parent / "example_outputs"


def load_module(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    @pytest.mark.parametrize("name", [
        "quickstart",
        "value_fault_chain",
        "triple_modular_redundancy",
        "multiport_pipeline",
    ])
    def test_fast_examples_execute(self, name, capsys):
        module = load_module(name)
        module.main()
        out = capsys.readouterr().out
        assert out.strip()

    @pytest.mark.parametrize("name", [
        "triple_modular_redundancy",
        "multiport_pipeline",
    ])
    def test_output_matches_pin(self, name, capsys):
        load_module(name).main()
        out = capsys.readouterr().out
        assert out == (PINNED_OUTPUTS / f"{name}.txt").read_text()

    def test_quickstart_reports_equivalence(self, capsys):
        load_module("quickstart").main()
        out = capsys.readouterr().out
        assert "equivalent              : True" in out

    def test_value_fault_chain_story_complete(self, capsys):
        load_module("value_fault_chain").main()
        out = capsys.readouterr().out
        assert "all values correct: True" in out
        assert "stalls: 0" in out


class TestExamplesImportable:
    @pytest.mark.parametrize("name", [
        "mjpeg_fault_tolerance",
        "adpcm_rate_degradation",
        "h264_on_scc",
        "calibration_workflow",
        "print_tables",
    ])
    def test_module_loads(self, name):
        module = load_module(name)
        assert callable(module.main)

"""The import graph: what a command loads before it does any work.

Every check runs in a fresh interpreter, because the pytest process itself
has long since imported every module of the package.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Loaded only by the commands that use them: sweeps and campaigns
#: (executor, pool), the streaming half of the telemetry (ledger, HTTP
#: status server) and the benchmark harness.
HEAVY = [
    "multiprocessing",
    "concurrent.futures",
    "http.server",
    "socketserver",
    "repro.exec",
    "repro.campaign",
    "repro.experiments.table2",
    "repro.experiments.table3",
    "repro.obs.live",
    "repro.obs.ledger",
    "repro.tools.bench_compare",
]

#: The packages whose re-exports load their submodule on first use.
LAZY_PACKAGES = ["repro.experiments", "repro.obs", "repro.exec",
                 "repro.faults"]


def _run(script: str):
    """The JSON that ``script`` prints, run in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("imports", [
    "import repro, repro.apps, repro.experiments.runner, repro.obs",
    "import repro.cli",
])
def test_single_run_imports_leave_heavy_subsystems_unloaded(imports):
    script = (f"import json, sys; {imports}; "
              f"print(json.dumps([m for m in {HEAVY!r} "
              f"if m in sys.modules]))")
    assert _run(script) == []


_EXPORT_CHECK = """
import importlib, json, pkgutil
package = importlib.import_module(NAME)
problems = []
listed = dir(package)
problems += [f"dir() lacks {n}" for n in package.__all__ if n not in listed]
star = {}
exec(f"from {NAME} import *", star)
problems += [f"import * lacks {n}" for n in package.__all__ if n not in star]
values = {name: getattr(package, name) for name in package.__all__}
try:
    getattr(package, "no_such_export")
    problems.append("unknown name resolved")
except AttributeError:
    pass
submodules = [importlib.import_module(f"{NAME}.{info.name}")
              for info in pkgutil.iter_modules(package.__path__)]
for name, value in values.items():
    defining = [m for m in submodules if name in vars(m)]
    if not defining:
        problems.append(f"{name} is defined in no submodule")
    problems += [f"{name} differs from {m.__name__}.{name}"
                 for m in defining if vars(m)[name] is not value]
print(json.dumps(problems))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_to_its_defining_object(package):
    assert _run(f"NAME = {package!r}\n" + _EXPORT_CHECK) == []

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
                 "repro.faults", "repro.scc"]


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


_RECOVERED_RUN = """
import json, sys
from repro.apps import SyntheticApp
from repro.experiments.runner import fault_time_for, run_duplicated
from repro.faults import FAIL_STOP, FaultSpec
from repro.recovery import RecoverySpec
app = SyntheticApp(seed=3)
fault = FaultSpec(replica=0, time=fault_time_for(app, 40, phase=0.4),
                  kind=FAIL_STOP)
run = run_duplicated(app, 100, 5, fault=fault, sizing=app.sizing(),
                     recovery=RecoverySpec())
assert run.recovery["completed"] == 1, run.recovery
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.scc"))))
"""


def test_recovery_loads_only_the_respawn_mapper_of_the_scc_model():
    # Respawn placement needs the mapper and the mesh it routes on (whose
    # router clock is a ClockDomain); the chip, MPB, contention and RCCE
    # models stay unloaded.
    assert _run(_RECOVERED_RUN) == [
        "repro.scc", "repro.scc.clock", "repro.scc.geometry",
        "repro.scc.mapping", "repro.scc.mesh"]


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

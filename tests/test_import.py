"""Importing the package stays light: optional heavy dependencies load on use.

scipy loads only inside ``coverage_volume``; networkx only inside
``Device.topology()``, the ``*_topology`` helpers and ``interaction_graph()``;
the HTTP service (``http.server``, ``ssl``) on first access to one of
``repro.service``'s exports, so the ``repro`` CLI's ``run`` does not load it;
the process-pool stack (``multiprocessing``, ``concurrent.futures.process``)
only when a sweep runs on worker processes.  Placement and routing read the
devices' cached coupling maps, so neither a compile nor a sweep loads
networkx.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _packages_loaded_by(code: str, prefix: str) -> list:
    """Run ``code`` in a fresh interpreter; the loaded modules starting with ``prefix``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))\n"
    )
    stdout = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(stdout.strip().splitlines()[-1])


def test_import_repro_does_not_load_scipy():
    assert _packages_loaded_by("import repro", "scipy") == []


def test_import_repro_does_not_load_networkx():
    assert _packages_loaded_by("import repro", "networkx") == []


def test_the_http_service_loads_on_first_use():
    assert _packages_loaded_by("import repro", "http.server") == []
    probe = "import repro; assert repro.service.BenchmarkService"
    assert _packages_loaded_by(probe, "repro.service.http") == ["repro.service.http"]


def test_the_cli_module_does_not_load_the_http_service():
    loaded = set(_packages_loaded_by("import repro.service.cli", ""))
    assert "repro.service.cli" in loaded
    assert not loaded & {"http.server", "ssl", "repro.service.http", "repro.service.jobs"}
    probe = "from repro.service import BenchmarkService, JobQueue, JobRecord, resolve_scenario"
    assert _packages_loaded_by(probe, "repro.service.") == [
        "repro.service.http",
        "repro.service.jobs",
    ]


def test_a_thread_sweep_does_not_load_the_process_pool():
    code = """
from repro.suite import Scenario, Sweep, run_scenario

scenario = Scenario(name="guard", sweeps=(Sweep.of("ghz", num_qubits=(3,)),), devices=("IonQ-11Q",))
result = run_scenario(scenario, shots=16, repetitions=1, seed=0, trajectories=4)
assert len(result.runs()) == 1
"""
    loaded = set(_packages_loaded_by(code, ""))
    assert "repro.distributed.executor" in loaded
    assert not loaded & {"multiprocessing", "concurrent.futures.process"}


def test_noise_aware_compiles_and_a_sweep_do_not_load_networkx():
    code = """
from repro.circuits import Circuit
from repro.devices import all_devices, device_names
from repro.suite import Scenario, Sweep, run_scenario
from repro.transpiler import transpile

for device in all_devices():
    size = min(device.num_qubits, 6)
    circuit = Circuit(size, size)
    for q in range(size):
        circuit.h(q)
    for q in range(size - 2):
        circuit.cx(q, q + 2)
    transpile(circuit.measure_all(), device, placement="noise_aware")
scenario = Scenario(
    name="guard", sweeps=(Sweep.of("ghz", num_qubits=(3,)),), devices=tuple(device_names())
)
result = run_scenario(scenario, shots=16, repetitions=1, seed=0, trajectories=4)
assert len(result.runs()) == len(device_names())
"""
    assert _packages_loaded_by(code, "networkx") == []

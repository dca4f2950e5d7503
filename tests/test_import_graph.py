"""The package import graph.

* Every public package imports cleanly as the first ``repro`` import
  of a fresh interpreter: no import cycle depends on another package
  having been imported first.
* A noise-free session -- importing ``repro.core``, ``repro.search``,
  ``repro.rack`` and ``repro.online``, then profiling a workload --
  loads neither the store (``repro.io``), the surrogate
  (``repro.surrogate``) nor OpenSSL (``_hashlib``): each is imported
  where it is first used.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = (
    "repro.search",
    "repro.core",
    "repro.sim",
    "repro.rack",
    "repro.online",
    "repro.io",
    "repro.surrogate",
    "repro.cli",
)

SESSION = """
import json, sys
import numpy
before = set(sys.modules)
import repro.core, repro.search, repro.rack, repro.online
from repro.core import machine_desc
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.hardware import machines
from repro.sim.noise import NO_NOISE
from repro.workloads import catalog
machine = machines.get("TESTBOX")
md = machine_desc.generate_machine_description(machine, noise=NO_NOISE)
WorkloadDescriptionGenerator(machine, md, noise=NO_NOISE).generate(catalog.get("MD"))
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first(package):
    proc = _python(f"import {package}")
    assert proc.returncode == 0, proc.stderr


def test_noise_free_session_loads_no_store_surrogate_or_openssl():
    proc = _python(SESSION)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.core.workload_desc" in loaded
    unwanted = [
        name for name in loaded
        if name == "_hashlib" or name.startswith(("repro.io", "repro.surrogate"))
    ]
    assert unwanted == []

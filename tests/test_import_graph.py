"""The import graph: each process loads the layers it uses and no others.

Three rules (docs/internals.md, "Import graph"), each held here:

* a package ``__init__`` imports no submodule — its names resolve on
  first use through the one helper, ``repro._lazy_exports``;
* a registry is a table, not an import side effect — ``available()``
  lists every kernel without importing one, and the table names exactly
  the ``@register`` calls in ``src/repro/compression``;
* a forked shard worker inherits its modules from the front end and
  imports none after it starts;
* the kernels' reference loops (``repro.compression._reference``) are
  an oracle, not a path: no simulation, selector or shard loads them,
  and in ``src/`` only ``repro.perf``'s ratio rows import them.

Every check that is about what a process imports runs in a fresh
interpreter.  The whole file takes about 12 s on a 2-CPU host, most of
it importing each of the ~110 modules alone (two at a time).
"""

from __future__ import annotations

import ast
import importlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.compression import base

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts)
    .removesuffix(".__init__")
    for path in PACKAGE.rglob("*.py")
)
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in PACKAGE.rglob("__init__.py")
)
KERNEL_MODULES = sorted(
    f"repro.compression.{module}" for module in base._KERNEL_MODULES.values()
)

#: ``src`` first, then whatever the suite runs under (a directory that
#: hides numpy, for one).
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

posix_only = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="these checks fork; POSIX only")


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path; its
    stdout."""
    proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(statement: str) -> list:
    """The ``repro`` modules and numpy loaded by ``statement`` alone."""
    out = _fresh(
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "    if name.startswith(('repro', 'numpy')))))\n"
    )
    return json.loads(out)


#: Imports each module it is given in a forked child of an interpreter
#: that has imported nothing of ``repro``, two children at a time.
_ALONE = r"""
import importlib, json, os, sys, traceback

failed, children = [], {}

def reap():
    pid, status = os.wait()
    name = children.pop(pid)
    if status:
        failed.append(name)

for name in sys.argv[1:]:
    if len(children) >= 2:
        reap()
    pid = os.fork()
    if pid == 0:
        try:
            importlib.import_module(name)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    children[pid] = name
while children:
    reap()
print(json.dumps(sorted(failed)))
"""


@posix_only
def test_every_module_imports_alone():
    proc = subprocess.run([sys.executable, "-c", _ALONE, *MODULES],
                          env=ENV, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [], proc.stderr
    assert len(MODULES) > 100


class TestFootprint:
    def test_import_repro_loads_no_submodule(self):
        assert _loaded_after("import repro") == ["repro"]

    def test_log_store_loads_no_numpy_simulator_or_kernel(self):
        loaded = _loaded_after("import repro.storage.logstore")
        assert "repro.storage.logstore" in loaded
        assert not [name for name in loaded if name.startswith("numpy")]
        assert not [name for name in loaded if name.startswith("repro.sim")]
        assert not set(loaded) & set(KERNEL_MODULES)

    def test_building_every_kernel_loads_no_numpy(self):
        """A kernel runs the compiled library, loaded with ctypes; numpy
        is for page generation and traces."""
        loaded = _loaded_after(
            "from repro.compression import available, create\n"
            "for name in available():\n"
            "    create(name)"
        )
        assert set(KERNEL_MODULES) <= set(loaded)
        assert not [name for name in loaded if name.startswith("numpy")]

    def test_shard_loads_no_simulator_layer(self):
        loaded = _loaded_after("import repro.service.shard")
        assert "repro.service.shard" in loaded
        for layer in ("sim", "ccache", "vm", "tiers"):
            assert not [name for name in loaded
                        if name.startswith(f"repro.{layer}")], layer


class TestLazyExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_exported_name_resolves_and_is_listed(self, name):
        package = importlib.import_module(name)
        listed = dir(package)
        for export in package.__all__:
            assert getattr(package, export) is not None, export
            assert export in listed, export

    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_init_imports_no_submodule(self, name):
        path = PACKAGE.joinpath(*name.split(".")[1:], "__init__.py")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                # Only the helper, from the root package.
                assert node.module is None and [
                    alias.name for alias in node.names
                ] == ["_lazy_exports"], ast.dump(node)

    def test_one_helper_and_no_other_module_getattr(self):
        hooks = []
        for path in PACKAGE.rglob("*.py"):
            for node in ast.parse(path.read_text()).body:
                if (isinstance(node, ast.FunctionDef)
                        and node.name in ("__getattr__", "__dir__")):
                    hooks.append(path.relative_to(SRC))
        assert hooks == []
        assert callable(repro._lazy_exports)

    def test_unknown_name_is_attribute_error(self):
        from repro import storage

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            storage.Nope
        with pytest.raises(ImportError):
            exec("from repro.faults import Nope", {})


class TestKernelTable:
    def test_available_lists_all_ten_without_importing_one(self):
        out = _fresh(
            "import json, sys\n"
            "from repro.compression import available\n"
            "names = available()\n"
            "print(json.dumps([list(names), sorted(\n"
            "    name for name in sys.modules if name in "
            f"{KERNEL_MODULES!r})]))\n"
        )
        names, kernels_loaded = json.loads(out)
        assert len(names) == 10
        assert names == sorted(base._KERNEL_MODULES)
        assert kernels_loaded == []

    def test_table_equals_the_register_calls(self):
        registered = {}
        for path in (PACKAGE / "compression").glob("*.py"):
            for name in re.findall(r'^@register\("([^"]+)"\)',
                                   path.read_text(), re.M):
                registered[name] = path.stem
        assert registered == base._KERNEL_MODULES

    def test_create_imports_on_first_use(self):
        out = _fresh(
            "import sys\n"
            "from repro.compression import create\n"
            "kernel = create('varint-delta')\n"
            "print(type(kernel).__module__, "
            "'repro.compression.lzss' in sys.modules)\n"
        )
        assert out.split() == ["repro.compression.delta", "False"]


_SHARD = r"""
import asyncio, json
from repro.service.config import ServiceConfig
from repro.service.server import CacheService

async def main():
    service = CacheService(ServiceConfig(shards=1))
    await service.start()
    await service.put(0, 1, bytes(range(256)) * 16)
    stats = await service.stats()
    await service.stop()
    print(json.dumps(stats["shards"][0]["late_imports"]))

asyncio.run(main())
"""


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked worker inherits its modules")
def test_a_forked_shard_imports_nothing_after_it_starts():
    assert json.loads(_fresh(_SHARD)) == []


REFERENCE = "repro.compression._reference"

#: A default and an ``adaptive`` simulation, then an ``adaptive``
#: service with one forked shard: the modules each side holds.
_RUNS = r"""
import asyncio, json, sys
from repro.mem.page import mbytes
from repro.service.config import ServiceConfig
from repro.service.server import CacheService
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.workloads import catalog

for compressor in ("lzrw1", "adaptive"):
    workload = catalog.build("compare", 0.02)
    machine = Machine(MachineConfig(memory_bytes=mbytes(0.12),
                                    compressor=compressor),
                      workload.build())
    SimulationEngine(machine).run(workload.references())

async def main():
    service = CacheService(ServiceConfig(shards=1, compressor="adaptive"))
    await service.start()
    for key in range(8):
        await service.put(0, key, bytes([key]) * 2048 + bytes(range(256)) * 8)
        await service.get(0, key)
    stats = await service.stats()
    await service.stop()
    return stats["shards"][0]["late_imports"]

late = asyncio.run(main())
print(json.dumps({"front end": sorted(name for name in sys.modules
                                      if name.startswith("repro")),
                  "shard": late}))
"""


class TestReferenceLoops:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only a forked worker inherits its modules")
    def test_no_run_loads_the_reference_loops(self):
        loaded = json.loads(_fresh(_RUNS))
        for ran in ("repro.sim.engine", "repro.compression.adaptive",
                    "repro.service.shard"):
            assert ran in loaded["front end"], ran
        assert REFERENCE not in loaded["front end"]
        # The shard holds what it inherited and what it imported since.
        assert loaded["shard"] == []

    def test_only_perf_imports_the_reference_loops(self):
        importers = set()
        for path in PACKAGE.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}"
                             for alias in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any("_reference" in name.split(".") for name in names):
                    importers.add(path.relative_to(SRC).as_posix())
        assert importers == {"repro/perf.py"}

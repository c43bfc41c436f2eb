"""repro — a reproduction of Douglis's compression cache (USENIX Winter 1993).

The package implements, in simulation, the full system of "The
Compression Cache: Using On-line Compression to Extend Physical Memory":
the LZRW1 compressor, a Sprite-like VM with true-LRU replacement, the
variable-sized circular compression cache with its cleaner and three-way
memory allocator, the whole-block file system and compressed fragment
swap, device models, and the paper's five benchmark applications.

Quick start::

    from repro import MachineConfig, Machine, SimulationEngine
    from repro.workloads import Thrasher
    from repro.mem.page import mbytes

    workload = Thrasher(working_set_bytes=mbytes(8), cycles=4)
    machine = Machine(MachineConfig(memory_bytes=mbytes(4)), workload.build())
    result = SimulationEngine(machine).run(workload.references())
    print(result.summary())

Every package ``__init__`` imports no submodule: its names are looked
up on first use (:func:`_lazy_exports`), so a process loads the layers
it touches and no others (docs/internals.md, "Import graph").
"""

__version__ = "1.0.0"


def _lazy_exports(package: str, table: dict) -> tuple:
    """``__getattr__``, ``__dir__`` and ``__all__`` for a package that
    exports ``{submodule: names}`` without importing the submodules.

    A name's submodule is imported the first time the name is asked for
    (PEP 562), and the value is then stored on the package, so the hook
    runs once per name.  ``from package import name`` goes through the
    same hook.
    """
    import importlib
    import sys

    where = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        sub = where.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, sorted(where)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "sim.costs": ("CostModel",),
    "sim.engine": ("PageRef", "RunResult", "SimulationEngine", "run_workload"),
    "sim.machine": ("Machine", "MachineConfig"),
})
__all__ = sorted([*__all__, "__version__"])

"""The named workloads: how each is sized at a scale, said once.

A workload is named on the command line (``run --workload``,
``trace-record``, ``trace-replay``), in the sweep grids of
:mod:`repro.experiments` and in the harness of :mod:`repro.perf`; all of
them take it from here.  An entry is a JSON-primitive *spec* — ``kind``
selects the class, the remaining keys are constructor arguments — so the
same description travels in a sweep point, is written to a checkpoint
and is rebuilt in a worker process by :func:`from_spec`.

``scale`` shrinks sizes and activity together: 1.0 is sized against the
paper's ~6 MBytes of user memory, and the memory-pressure regime is kept
at every scale (see docs/workloads.md for the table).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from ..mem.page import mbytes
from .base import Workload
from .compare import CompareWorkload
from .diurnal import DiurnalWorkload
from .gold import GoldWorkload
from .isca import CacheSimWorkload
from .multiprogram import MultiProgramWorkload
from .relaunch import AppRelaunchWorkload
from .sortw import SortWorkload
from .synthetic import SyntheticWorkload
from .thrasher import Thrasher

#: ``kind`` -> workload class (``multiprogram`` nests specs; see
#: :func:`from_spec`).
KINDS: Dict[str, Callable[..., Workload]] = {
    "thrasher": Thrasher,
    "gold": GoldWorkload,
    "compare": CompareWorkload,
    "isca": CacheSimWorkload,
    "sort": SortWorkload,
    "synthetic": SyntheticWorkload,
    "relaunch": AppRelaunchWorkload,
    "diurnal": DiurnalWorkload,
}

#: Name -> spec at a scale, for every workload nameable from the command
#: line.
CATALOG: Dict[str, Callable[[float], Dict[str, Any]]] = {
    # Twice the 6-MByte machine: Figure 1(b)'s thrasher.
    "thrasher": lambda scale: {
        "kind": "thrasher",
        "working_set_bytes": int(mbytes(6 * scale) * 2),
        "cycles": 3,
        "write": True,
    },
    "compare": lambda scale: {
        "kind": "compare",
        "band_bytes": mbytes(24 * scale),
        "round_trips": 2,
    },
    "isca": lambda scale: {
        "kind": "isca",
        "table_bytes": mbytes(20 * scale),
        "events": max(500, int(60000 * scale)),
    },
    "sort-partial": lambda scale: {
        "kind": "sort",
        "data_bytes": mbytes(12 * scale),
        "partial": True,
    },
    "sort-random": lambda scale: {
        "kind": "sort",
        "data_bytes": mbytes(12 * scale),
        "partial": False,
    },
    "gold-warm": lambda scale: {
        "kind": "gold",
        "mode": "warm",
        "index_bytes": mbytes(30 * scale),
        "operations": max(30, int(8000 * scale)),
    },
    "synthetic": lambda scale: {
        "kind": "synthetic",
        "address_space_bytes": mbytes(8 * scale),
        "references": max(500, int(40000 * scale)),
    },
    # Three CPU-bound programs timesharing one machine (Section 3's
    # collective-address-space pressure); the canonical source for long
    # streamed binary traces (trace-record --format binary --repeat N).
    "multiprogram": lambda scale: {
        "kind": "multiprogram",
        "quantum": 64,
        "programs": [
            spec("compare", scale, band_bytes=mbytes(12 * scale)),
            spec("sort-partial", scale, data_bytes=mbytes(8 * scale)),
            spec("synthetic", scale,
                 address_space_bytes=mbytes(6 * scale),
                 references=max(500, int(30000 * scale))),
        ],
    },
    # The control-plane scenarios: app-switch storms and a breathing
    # working set.
    "relaunch": lambda scale: {
        "kind": "relaunch",
        "app_bytes": mbytes(4 * scale),
        "apps": 3,
        "sessions": 8,
    },
    "diurnal": lambda scale: {
        "kind": "diurnal",
        "space_bytes": mbytes(10 * scale),
        "phases": 6,
        "passes_per_phase": 2,
    },
}


def spec(name: str, scale: float, **overrides: Any) -> Dict[str, Any]:
    """The spec of catalogue entry ``name`` at ``scale``, with
    ``overrides`` replacing constructor arguments (``KeyError`` for a
    name the catalogue lacks)."""
    return {**CATALOG[name](scale), **overrides}


def from_spec(spec: Mapping[str, Any]) -> Workload:
    """Build the workload a spec describes."""
    kwargs = dict(spec)
    kind = kwargs.pop("kind")
    if kind == "multiprogram":
        # Programs are themselves workload specs, decoded recursively.
        return MultiProgramWorkload(
            [from_spec(program) for program in kwargs["programs"]],
            quantum=kwargs.get("quantum", 64),
        )
    if kind not in KINDS:
        known = ", ".join(sorted([*KINDS, "multiprogram"]))
        raise ValueError(f"unknown workload kind {kind!r}; known: {known}")
    return KINDS[kind](**kwargs)


def build(name: str, scale: float) -> Workload:
    """Catalogue entry ``name`` at ``scale``, as a workload."""
    return from_spec(spec(name, scale))

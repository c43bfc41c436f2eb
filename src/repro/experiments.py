"""Experiment harnesses regenerating the paper's tables and figures.

Every experiment is one row of :data:`EXPERIMENTS`: a grid of
independent sweep points, how one point runs and becomes a flat cell,
and a renderer over the completed cells by key.  Every simulated run is
described one way, as a *cell spec*: a :mod:`repro.workloads.catalog`
spec and a :meth:`MachineConfig.from_spec` spec, built by
:func:`build_cell` and run once by :func:`run_cell` or on both systems
by :func:`run_pair`.  The CLI's ``figure3``, ``table1`` and ``sweep``
commands run a row; ``benchmarks/`` and ``tests/`` assert on the typed
views (:class:`Figure3Result`, :class:`Table1Row`) built from the same
cells.

Scaling: each harness takes a ``scale`` in (0, 1].  ``scale=1`` is the
paper's configuration (14 MBytes of user memory for Table 1, ~6 MBytes
for Figure 3, address spaces in the tens of MBytes); smaller scales
shrink memory and working sets together so the memory-pressure *regime*
is preserved while runs stay fast.

CPU calibration: Table 1 measures whole applications.  The harness first
runs each workload on the *standard* machine with zero application CPU,
then sets ``compute_seconds_per_ref`` so the standard run time matches
the paper's ``Time (std)`` column (scaled).  The compression-cache run
time — and therefore the speedup, the ratio column, and the
uncompressible column — are emergent outputs.  See EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .mem.page import mbytes
from .sim.engine import RunResult, SimulationEngine
from .sim.machine import Machine, MachineConfig
from .sim.report import format_minutes_seconds, render_table
from .storage.blockfs import PartialWritePolicy
from .sweep import SweepPoint, run_sweep
from .workloads import Workload, catalog

# ----------------------------------------------------------------------
# Cells: the one description of a simulated run
# ----------------------------------------------------------------------
#
# A cell spec is ``{"config": {...}, "workload": {...}}`` in JSON
# primitives, so it travels in a sweep point and is rebuilt inside the
# worker.  Two optional keys shape the run: ``"setup": true`` runs the
# workload's unmeasured set-up stream first (gold's index load), and
# ``"compute_seconds_per_ref"`` is Table 1's calibrated application CPU.


def cell_point(runner: str, key: str, config: Mapping[str, Any],
               workload: Mapping[str, Any]) -> SweepPoint:
    """One ``{"config": {...}, "workload": {...}}`` cell as a sweep
    point for ``runner``."""
    return SweepPoint(
        runner=runner,
        spec={"config": dict(config), "workload": dict(workload)},
        key=key,
    )


def build_cell(spec: Mapping[str, Any],
               **changes: Any) -> Tuple[Machine, Workload]:
    """The machine one cell spec describes (:meth:`MachineConfig.from_spec`,
    :func:`repro.workloads.catalog.from_spec`), with its workload.

    ``changes`` replace config fields a spec does not carry (the
    compression-cache switch of :func:`run_pair`, a fault plan, the
    ``fast`` kernels).
    """
    workload = catalog.from_spec(spec["workload"])
    workload.compute_seconds_per_ref = spec.get("compute_seconds_per_ref", 0.0)
    config = MachineConfig.from_spec(spec["config"]).variant(**changes)
    return Machine(config, workload.build()), workload


def _run(machine: Machine, workload: Workload,
         spec: Mapping[str, Any]) -> RunResult:
    engine = SimulationEngine(machine)
    if spec.get("setup"):
        engine.run(workload.setup_references())
        machine.reset_measurement()
    return engine.run(workload.references())


def run_cell(spec: Mapping[str, Any],
             **changes: Any) -> Tuple[Machine, RunResult]:
    """Build and run one cell: the machine as the run left it (tier
    chain, stores, counters) and the run's result."""
    machine, workload = build_cell(spec, **changes)
    return machine, _run(machine, workload, spec)


def run_pair(spec: Mapping[str, Any]) -> Tuple[RunResult, RunResult]:
    """Run a cell on the standard machine and the compression-cache
    machine; returns (std_result, cc_result)."""
    std, cc = (run_cell(spec, compression_cache=compression)[1]
               for compression in (False, True))
    return std, cc


def _speedup(std: float, cc: float) -> float:
    """``std / cc``: how many times faster the compression cache ran."""
    return float("inf") if cc == 0 else std / cc


# ----------------------------------------------------------------------
# Figure 3: thrasher sweep
# ----------------------------------------------------------------------


@dataclass
class Figure3Point:
    """One x-position of Figure 3."""

    address_space_bytes: int
    std_ms_per_access: float
    cc_ms_per_access: float

    @property
    def speedup(self) -> float:
        return _speedup(self.std_ms_per_access, self.cc_ms_per_access)


@dataclass
class Figure3Result:
    """Both panels of Figure 3 for one access mode (ro or rw)."""

    mode: str
    points: List[Figure3Point] = field(default_factory=list)

    @classmethod
    def from_cells(cls, mode: str,
                   cells: Mapping[str, Mapping[str, Any]]) -> "Figure3Result":
        """The ``mode`` curve of completed Figure 3 cells, in cell order."""
        return cls(mode, [
            Figure3Point(record["address_space_bytes"],
                         record["std_ms_per_access"],
                         record["cc_ms_per_access"])
            for key, record in cells.items()
            if key.startswith(f"figure3/{mode}/")
        ])

    def render(self) -> str:
        rows = [
            [
                f"{p.address_space_bytes / mbytes(1):.1f}",
                f"{p.std_ms_per_access:.2f}",
                f"{p.cc_ms_per_access:.2f}",
                f"{p.speedup:.2f}",
            ]
            for p in self.points
        ]
        return render_table(
            ["MB", f"std_{self.mode} ms", f"cc_{self.mode} ms", "speedup"],
            rows,
            title=f"Figure 3 ({self.mode}): avg page access time vs size",
        )


#: The paper's 0.3x-6.7x address-space span, as multiples of user memory.
FIGURE3_MULTIPLES = (0.35, 0.7, 1.0, 1.4, 2.0, 2.7, 3.4, 4.7, 6.0, 6.7)


def _figure3_cell(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """One x-position of Figure 3: the catalogue thrasher over
    ``multiple`` times ~6 MBytes of user memory, with the point's
    cycles, access mode and content seed."""
    memory = mbytes(6 * spec["scale"])
    return {
        "config": {"memory_bytes": memory},
        "workload": catalog.spec(
            "thrasher", spec["scale"],
            working_set_bytes=int(memory * spec["multiple"]),
            cycles=spec["cycles"], write=spec["write"], seed=spec["seed"],
        ),
    }


def _figure3_extract(cell: Mapping[str, Any], std: RunResult,
                     cc: RunResult) -> Dict[str, Any]:
    accesses = std.metrics_snapshot["accesses"]
    return {
        "address_space_bytes": cell["workload"]["working_set_bytes"],
        "accesses": accesses,
        "std_ms_per_access": 1000.0 * std.elapsed_seconds / accesses,
        "cc_ms_per_access": 1000.0 * cc.elapsed_seconds / accesses,
    }


def figure3_points(
    write: bool,
    scale: float = 1.0,
    points: Optional[Sequence[float]] = None,
    cycles: int = 3,
    seed: int = 0,
) -> List[SweepPoint]:
    """Decompose one Figure 3 curve pair into independent sweep points;
    :func:`run_cells` runs them and :meth:`Figure3Result.from_cells`
    reads the curve.

    Args:
        write: rw (True) or ro (False) thrasher.
        scale: 1.0 = the paper's ~6 MBytes of user memory and 2-40 MByte
            sweep; smaller values shrink both together.
        points: address-space sizes as multiples of user memory
            (default mirrors the paper's 0.3x-6.7x span).
        cycles: passes per measurement.
        seed: content-generation seed carried into every point.
    """
    if points is None:
        points = FIGURE3_MULTIPLES
    mode = "rw" if write else "ro"
    return [
        SweepPoint(
            runner="repro.experiments:run_figure3_point",
            spec={
                "write": write,
                "scale": scale,
                "multiple": multiple,
                "cycles": cycles,
                "seed": seed,
            },
            key=(
                f"figure3/{mode}/s{scale:g}/c{cycles}/"
                f"seed{seed}/x{multiple:g}"
            ),
        )
        for multiple in points
    ]


def run_cells(points: Sequence[SweepPoint],
              **sweep_options: Any) -> Dict[str, Dict[str, Any]]:
    """Run ``points`` as one sweep (``sweep_options`` as
    :func:`repro.sweep.run_sweep` takes them: ``jobs``, ``checkpoint``,
    ``timeout``, ``progress``); the completed cells by key, in point
    order (identical at any ``jobs`` — see ``docs/sweep.md``).  Raises
    :class:`repro.sweep.SweepError` on a failed point."""
    return run_sweep(points, **sweep_options).cells(points)


def render_figure3(cells: Mapping[str, Mapping[str, Any]]) -> str:
    """One Figure 3 table per access mode the cells hold, in cell order,
    each followed by a blank line."""
    modes = dict.fromkeys(key.split("/")[1] for key in cells)
    return "\n\n".join(
        Figure3Result.from_cells(mode, cells).render() for mode in modes
    ) + "\n"


# ----------------------------------------------------------------------
# Table 1: application speedups
# ----------------------------------------------------------------------

#: The paper's Table 1, for calibration targets and shape checks:
#: name -> (std seconds, cc seconds, speedup, ratio %, uncompressible %).
PAPER_TABLE1: Dict[str, Tuple[float, float, float, float, float]] = {
    "compare": (974.0, 364.0, 2.68, 31.0, 0.1),
    "isca": (2595.0, 1620.0, 1.60, 32.0, 1.7),
    "sort_partial": (812.0, 624.0, 1.30, 30.0, 49.0),
    "gold_create": (843.0, 938.0, 0.90, 59.0, 42.0),
    "gold_cold": (2730.0, 3396.0, 0.80, 60.0, 10.0),
    "sort_random": (1577.0, 1731.0, 0.91, 37.0, 98.0),
    "gold_warm": (2156.0, 2940.0, 0.73, 52.0, 0.9),
}

#: Display order used by the paper's table.
TABLE1_ORDER = tuple(PAPER_TABLE1)


@dataclass
class Table1Row:
    """One application's measured row."""

    name: str
    std_seconds: float
    cc_seconds: float
    ratio_percent: float
    uncompressible_percent: float
    compute_seconds_per_ref: float

    @property
    def speedup(self) -> float:
        return _speedup(self.std_seconds, self.cc_seconds)


def _table1_overrides(scale: float) -> Dict[str, Tuple[str, bool, Dict]]:
    """The seven Table 1 rows as catalogue entries: name -> (catalogue
    name, whether the set-up stream runs first, overrides).

    Sizes at scale=1 mirror the measured system: 14 MBytes of user
    memory, address spaces in the 18-26 MByte range so every application
    pages.
    """
    # Activity levels are calibration constants: together with the
    # paper's Time(std) targets they set each application's
    # paging-versus-CPU balance (see EXPERIMENTS.md).  The gold index is
    # sized past the compressed capacity of memory — the paper's gold
    # pays "a full 4-Kbyte read from backing store" on its nonsequential
    # faults, so its working set cannot fit even compressed — and its
    # query hot set sits just above what the standard system keeps
    # resident, which is what turns the compression cache's memory
    # appetite into extra faults (the Section 5.2 slowdown mechanism).
    def gold(mode: str, operations: int, **skew: Any) -> Dict[str, Any]:
        return {"mode": mode, "operations": max(30, int(operations * scale)),
                "hot_fraction": 0.3, "hot_probability": 0.8, **skew}

    return {
        "compare": ("compare", False, {"round_trips": 3}),
        "isca": ("isca", False, {"events": max(500, int(570000 * scale))}),
        "sort_partial": ("sort-partial", False, {"pointer_overhead": 1.0}),
        "gold_create": ("gold-warm", False, gold(
            "create", 7000, hot_fraction=0.28, hot_probability=0.85,
            text_fraction=0.5)),
        "gold_cold": ("gold-warm", True, gold("cold", 32500)),
        "sort_random": ("sort-random", False, {"pointer_overhead": 1.0}),
        "gold_warm": ("gold-warm", True, gold("warm", 61000)),
    }


def _table1_cell(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """One Table 1 row on 14 MBytes of user memory.

    Calibrated, its workload charges the CPU per reference that brings
    the standard run to the paper's ``Time (std)``: pass 1 runs the
    standard machine with zero application CPU, which is pure paging
    time.
    """
    name, scale = spec["name"], spec["scale"]
    workloads = _table1_overrides(scale)
    if name not in workloads:
        known = ", ".join(TABLE1_ORDER)
        raise KeyError(f"unknown Table 1 application {name!r}; known: {known}")
    entry, setup, overrides = workloads[name]
    cell = {"config": {"memory_bytes": mbytes(14 * scale)},
            "workload": catalog.spec(entry, scale, **overrides),
            "setup": setup}
    if spec["calibrate"]:
        machine, probe = build_cell(cell, compression_cache=False)
        paging = _run(machine, probe, cell)
        target = PAPER_TABLE1[name][0] * scale
        cell["compute_seconds_per_ref"] = max(
            0.0, (target - paging.elapsed_seconds) / probe.reference_count()
        )
    return cell


def _table1_extract(cell: Mapping[str, Any], std: RunResult,
                    cc: RunResult) -> Dict[str, Any]:
    return {
        "name": cell["name"],
        "std_seconds": std.elapsed_seconds,
        "cc_seconds": cc.elapsed_seconds,
        "ratio_percent": cc.compression_ratio_percent,
        "uncompressible_percent": cc.uncompressible_percent,
        "compute_seconds_per_ref": cell.get("compute_seconds_per_ref", 0.0),
    }


def table1_row(
    name: str,
    scale: float = 1.0,
    calibrate: bool = True,
) -> Table1Row:
    """Measure one Table 1 application at the given scale."""
    return Table1Row(**run_table1_point(
        {"name": name, "scale": scale, "calibrate": calibrate}
    ))


def table1_points(
    scale: float = 1.0,
    calibrate: bool = True,
    names: Optional[Sequence[str]] = None,
) -> List[SweepPoint]:
    """Decompose Table 1 into one sweep point per application row;
    :func:`run_cells` runs them and :func:`table1_rows` reads the
    table."""
    return [
        SweepPoint(
            runner="repro.experiments:run_table1_point",
            spec={"name": name, "scale": scale, "calibrate": calibrate},
            key=f"table1/s{scale:g}/{'cal' if calibrate else 'raw'}/{name}",
        )
        for name in (names if names is not None else TABLE1_ORDER)
    ]


def table1_rows(cells: Mapping[str, Mapping[str, Any]]) -> List[Table1Row]:
    """The typed rows of completed Table 1 cells, in cell order."""
    return [Table1Row(**record) for record in cells.values()]


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Render measured rows alongside the paper's numbers."""
    table = []
    for row in rows:
        paper = PAPER_TABLE1[row.name]
        table.append([
            row.name,
            format_minutes_seconds(row.std_seconds),
            format_minutes_seconds(row.cc_seconds),
            f"{row.speedup:.2f}",
            f"{paper[2]:.2f}",
            f"{row.ratio_percent:.0f}",
            f"{paper[3]:.0f}",
            f"{row.uncompressible_percent:.1f}",
            f"{paper[4]:.1f}",
        ])
    return render_table(
        ["application", "t(std)", "t(cc)", "speedup", "paper",
         "ratio%", "paper", "uncmp%", "paper"],
        table,
        title="Table 1: application speedups (measured vs paper)",
    )


# ----------------------------------------------------------------------
# Figure 1 rendering (analytic; no simulation needed)
# ----------------------------------------------------------------------


def render_figure1() -> str:
    """Render both Figure 1 surfaces as text tables."""
    from .model.analytic import figure_1a, figure_1b

    blocks = []
    for title, surface in (
        ("Figure 1(a): bandwidth speedup", figure_1a()),
        ("Figure 1(b): in-memory speedup", figure_1b()),
    ):
        rows = []
        for i, speed in enumerate(surface.speeds):
            rows.append(
                [f"c={speed:g}"]
                + [f"{surface.values[i][j]:.2f}"
                   for j in range(0, len(surface.ratios), 4)]
            )
        headers = ["speed \\ ratio"] + [
            f"{surface.ratios[j]:.2f}"
            for j in range(0, len(surface.ratios), 4)
        ]
        blocks.append(render_table(headers, rows, title=title))
    return "\n\n".join(blocks)


def effective_memory(machine: Machine) -> Tuple[int, float]:
    """End-of-run effective memory: frames' worth of pages held, and
    that as a ratio of physical frames.

    Frames the chain occupies hold ``compressed_pages`` pages' worth of
    data; everything else holds one page per frame.
    """
    chain = machine.chain
    total_frames = machine.frames.total_frames
    effective = (
        total_frames - chain.mapped_frames() + chain.compressed_pages()
    )
    return effective, effective / total_frames if total_frames else 0.0


# ----------------------------------------------------------------------
# Ablation cells
# ----------------------------------------------------------------------
#
# The design-choice ablations (``sweep --experiment ablations``) are
# grids of independent std-versus-cc comparisons over
# machine-configuration variants.


def _ablation_extract(_cell: Mapping[str, Any], std: RunResult,
                      cc: RunResult) -> Dict[str, Any]:
    return {
        "std_seconds": std.elapsed_seconds,
        "cc_seconds": cc.elapsed_seconds,
        "speedup": _speedup(std.elapsed_seconds, cc.elapsed_seconds),
    }


#: Allocator-bias weights swept by ablation 3.
ABLATION_BIAS_WEIGHTS = (1.0, 2.0, 6.0, 16.0)


def _paging_pair(scale: float) -> Dict[str, Dict[str, Any]]:
    """The two workloads the ablation, tier and lfs grids run: the
    thrasher (the cache's best case) and ``gold-warm`` with Table 1's
    query skew (its worst)."""
    return {
        "thrasher": catalog.spec("thrasher", scale),
        "gold-warm": catalog.spec("gold-warm", scale,
                                  hot_fraction=0.3, hot_probability=0.8),
    }


def _ablation_tables() -> Tuple[Tuple[Any, ...], ...]:
    """The seven ablation tables: title, header, the ``(key suffix,
    field)`` each value column reads, and one ``(label, key, config)``
    per row.  A row is one cell per distinct suffix: ``""`` runs the
    thrasher, ``"/thrasher"`` / ``"/gold-warm"`` name the workload."""
    speedup = (("", "speedup"),)
    return (
        ("1. Backing-store partial-write policy (Section 4.3)",
         ["partial-write policy", "cc speedup"], speedup,
         [(policy.value, f"1-partial-write/{policy.value}",
           {"partial_write_policy": policy.value})
          for policy in PartialWritePolicy]),
        ("2. Fragment store parameters (Section 4.3)",
         ["fragments", "cc speedup"], speedup,
         [("spanning allowed", "2-fragments/spanning",
           {"allow_spanning": True}),
          ("no spanning", "2-fragments/no-spanning",
           {"allow_spanning": False}),
          ("per-page writes (batch=4K)", "2-fragments/batch-4k",
           {"batch_bytes": 4096}),
          ("32-KByte batches", "2-fragments/batch-32k",
           {"batch_bytes": 32768})]),
        ("3. Allocator bias: application-dependent optimum (Section 4.2)",
         ["bias", "thrasher speedup", "gold-warm speedup"],
         (("/thrasher", "speedup"), ("/gold-warm", "speedup")),
         [(f"vm_weight={weight:g}", f"3-bias/w{weight:g}",
           {"biases": {"file_cache_weight": 2 * weight,
                       "vm_weight": weight, "ccache_weight": 1.0}})
          for weight in ABLATION_BIAS_WEIGHTS]),
        ("4. Compression algorithm", ["algorithm", "cc speedup"], speedup,
         [(name, f"4-algorithm/{name}", {"compressor": name})
          for name in ("lzrw1", "lzss", "wk", "rle")]),
        ("5. Paging into LFS (Sections 3, 5.1)",
         ["filesystem", "std (s)", "cc (s)", "cc speedup"],
         (("", "std_seconds"), ("", "cc_seconds"), ("", "speedup")),
         [(fs, f"5-filesystem/{fs}", {"filesystem": fs})
          for fs in ("ufs", "lfs")]),
        ("6. In-kernel versus Mach-style external pager (Section 4)",
         ["architecture", "cc speedup", "std time (s)"],
         (("", "speedup"), ("", "std_seconds")),
         [(arch, f"6-architecture/{arch}", {"vm_architecture": arch})
          for arch in ("monolithic", "external-pager")]),
        ("7. Section 6 outlook", ["outlook", "cc speedup"], speedup,
         [("1993 baseline", "7-outlook/baseline", {}),
          ("hardware compression", "7-outlook/hardware-compression",
           {"costs": "hardware"}),
          ("8x faster CPU", "7-outlook/cpu-8x", {"costs": ["cpu", 8.0]}),
          ("wireless LAN backing store", "7-outlook/wavelan",
           {"device": "wavelan"}),
          ("modern disk", "7-outlook/modern-hdd",
           {"device": "modern-hdd"})]),
    )


def ablation_points(scale: float) -> List[SweepPoint]:
    """The full design-choice ablation grid, one table row at a time.

    Every cell is independent; ``render_ablations`` reassembles the
    seven tables from the completed results by key.  The gold-warm
    cells run on Table 1's 14 MBytes, the thrasher's on 6.
    """
    workloads = _paging_pair(scale)
    memory = {"thrasher": mbytes(6 * scale), "gold-warm": mbytes(14 * scale)}
    points: List[SweepPoint] = []
    for _title, _header, columns, rows in _ablation_tables():
        for _label, key, config in rows:
            for suffix in dict.fromkeys(suffix for suffix, _ in columns):
                wname = suffix.lstrip("/") or "thrasher"
                points.append(cell_point(
                    "repro.experiments:run_ablation_point", key + suffix,
                    {"memory_bytes": memory[wname], **config},
                    workloads[wname],
                ))
    return points


def render_ablations(cells: Mapping[str, Mapping[str, Any]]) -> str:
    """The seven ablation tables, from completed cell results by key:
    speedups to two places, seconds to one."""
    return "\n\n".join(
        render_table(header, [
            [label] + [
                f"{cells[key + suffix][name]:.{2 if name == 'speedup' else 1}f}"
                for suffix, name in columns
            ]
            for label, key, _config in rows
        ], title=title)
        for title, header, columns, rows in _ablation_tables()
    )


# ----------------------------------------------------------------------
# Tier-chain comparison: the paper's single cache versus a 2-tier chain
# ----------------------------------------------------------------------
#
# The N-tier generalization (repro.tiers) asks whether splitting the
# compression cache into a small fast-kernel L1 over a high-ratio L2
# buys anything: compressed-memory hit rate (faults served without I/O)
# and effective memory (frames' worth of data held in memory) are the
# two axes the comparison reports.

#: The chains the comparison sweeps: the paper's single cache and the
#: fast-L1/high-ratio-L2 preset (see ``repro.tiers.spec``).
TIERS_CHAINS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("1-tier", None),
    ("2-tier", "two-tier"),
)


def _chain_fields(machine: Machine, result: RunResult) -> Dict[str, Any]:
    """The fields the tier and control comparisons share: the faults
    split by where they were served, effective memory, demotions."""
    faults = result.metrics_snapshot["faults"]
    total = faults["total"]
    return {
        "elapsed_seconds": result.elapsed_seconds,
        "faults_total": total,
        "compressed_hit_rate": (
            faults["from_ccache"] / total if total else 0.0
        ),
        "effective_memory_ratio": effective_memory(machine)[1],
        "demoted_pages": machine.chain.demoted_pages(),
    }


def _tiers_extract(_cell: Mapping[str, Any], machine: Machine,
                   result: RunResult, _host_seconds: float) -> Dict[str, Any]:
    """A (chain, workload) cell: ``config["tiers"]`` selects the chain
    (absent = the default single cache).  Adds the end-of-run effective
    frames (resident + compressed pages held) and the per-tier
    snapshots."""
    cell = _chain_fields(machine, result)
    cell["effective_frames"] = effective_memory(machine)[0]
    cell["tiers"] = machine.chain.snapshot()
    return cell


def tiers_points(scale: float) -> List[SweepPoint]:
    """The 1-tier-versus-2-tier grid."""
    memory = mbytes(6 * scale)
    points: List[SweepPoint] = []
    for wname, workload in _paging_pair(scale).items():
        for cname, tiers in TIERS_CHAINS:
            config: Dict[str, Any] = {"memory_bytes": memory}
            if tiers is not None:
                config["tiers"] = tiers
            points.append(cell_point(
                "repro.experiments:run_tiers_point",
                f"tiers/{cname}/{wname}", config, workload,
            ))
    return points


def render_tiers(cells: Mapping[str, Mapping[str, Any]]) -> str:
    """The tier-comparison table, from completed cell results by key."""
    rows = []
    for wname in ("thrasher", "gold-warm"):
        for cname, _tiers in TIERS_CHAINS:
            cell = cells[f"tiers/{cname}/{wname}"]
            rows.append([
                wname,
                cname,
                f"{cell['elapsed_seconds']:.1f}",
                f"{cell['compressed_hit_rate'] * 100:.1f}%",
                f"{cell['effective_memory_ratio']:.2f}",
                str(cell["demoted_pages"]),
            ])
    return render_table(
        ["workload", "chain", "elapsed (s)", "compressed hit rate",
         "effective memory", "demotions"],
        rows,
        title="Compressed-memory hierarchy: 1-tier versus 2-tier",
    )


# ----------------------------------------------------------------------
# Kernel comparison: every single kernel versus the adaptive selector
# ----------------------------------------------------------------------
#
# The adaptive selector (repro.compression.adaptive) claims that picking
# a kernel per page beats committing to any one kernel for the whole
# run.  This sweep checks the claim across the standard workload mix:
# per (kernel, workload) cell it reports the stored fraction (bytes
# actually occupied, counting threshold failures at full page size),
# effective memory, and host-side compression throughput.

#: Kernels the comparison sweeps: every general-purpose single kernel
#: plus the adaptive selector.  ``rle``/``varint-delta``/``null`` are
#: omitted as standalone columns (they lose everywhere except their own
#: niche) but remain inside adaptive's candidate set.
KERNEL_NAMES: Tuple[str, ...] = (
    "lzrw1", "lzss", "wk", "bdi", "fpc", "cpack", "adaptive",
)

#: Workloads of the kernel comparison, chosen to span the content
#: classes the kernels specialize in (text, sorted records, pointer
#: structures, cache-simulator tables, synthetic mixes).
KERNELS_WORKLOADS: Tuple[str, ...] = (
    "thrasher", "compare", "isca", "sort-partial", "sort-random",
    "gold-warm", "synthetic",
)


def _kernels_extract(_cell: Mapping[str, Any], machine: Machine,
                     result: RunResult, host_seconds: float) -> Dict[str, Any]:
    """A (kernel, workload) cell: ``config["compressor"]`` selects the
    kernel.  The simulated results (faults, stored bytes, ratios) are
    deterministic; the ``host_seconds``/``refs_per_second`` fields are
    this host's wall-clock throughput, which the sweep digest leaves out
    (:data:`~repro.sweep.WALL_CLOCK_FIELDS`).
    """
    metrics = machine.vm.metrics
    comp = metrics.compression
    page_size = machine.config.page_size
    # Bytes the backing layers actually hold: kept pages at their
    # compressed size, threshold failures at full page size.  This is
    # the honest aggregate-ratio metric — a kernel that shrinks easy
    # pages but fails the 4:3 test everywhere else pays for it here.
    raw_bytes = comp.pages_uncompressible * page_size
    stored = comp.bytes_out + raw_bytes
    total = comp.bytes_in + raw_bytes
    cell: Dict[str, Any] = {
        "elapsed_seconds": result.elapsed_seconds,
        "faults_total": result.metrics_snapshot["faults"]["total"],
        "pages_compressed": comp.pages_compressed,
        "pages_uncompressible": comp.pages_uncompressible,
        "mean_ratio_percent": comp.mean_ratio_percent,
        "uncompressible_percent": comp.uncompressible_percent,
        "bytes_in": comp.bytes_in,
        "stored_bytes": stored,
        "total_bytes": total,
        "stored_fraction": stored / total if total else 1.0,
        "effective_memory_ratio": effective_memory(machine)[1],
        "host_seconds": host_seconds,
        "refs_per_second": (
            metrics.accesses / host_seconds if host_seconds > 0 else 0.0
        ),
    }
    if result.selection_counters is not None:
        cell["selection"] = result.selection_counters
    return cell


def kernels_points(scale: float) -> List[SweepPoint]:
    """The kernel-versus-workload grid."""
    memory = mbytes(6 * scale)
    points: List[SweepPoint] = []
    for wname in KERNELS_WORKLOADS:
        for kernel in KERNEL_NAMES:
            points.append(cell_point(
                "repro.experiments:run_kernels_point",
                f"kernels/{kernel}/{wname}",
                {"memory_bytes": memory, "compressor": kernel},
                catalog.spec(wname, scale),
            ))
    return points


def render_kernels(cells: Mapping[str, Mapping[str, Any]]) -> str:
    """The kernel-comparison tables, from completed cell results."""
    rows = [
        [wname] + [
            f"{cells[f'kernels/{kernel}/{wname}']['stored_fraction'] * 100:.1f}%"
            for kernel in KERNEL_NAMES
        ]
        for wname in KERNELS_WORKLOADS
    ]
    aggregates: Dict[str, float] = {}
    for kernel in KERNEL_NAMES:
        grid = [cells[f"kernels/{kernel}/{wname}"]
                for wname in KERNELS_WORKLOADS]
        total = sum(cell["total_bytes"] for cell in grid)
        if total:
            aggregates[kernel] = sum(c["stored_bytes"] for c in grid) / total
    rows.append(["aggregate"] + [
        f"{aggregates[kernel] * 100:.1f}%" if kernel in aggregates else "-"
        for kernel in KERNEL_NAMES
    ])
    block = render_table(
        ["workload"] + list(KERNEL_NAMES), rows,
        title="Stored fraction by kernel (lower is better; "
              "threshold failures count at full page size)",
    )
    singles = {k: v for k, v in aggregates.items() if k != "adaptive"}
    if singles and "adaptive" in aggregates:
        best = min(singles, key=singles.get)
        verdict = (
            "beats" if aggregates["adaptive"] < singles[best] else
            "does not beat"
        )
        block += (
            f"\n\nadaptive {aggregates['adaptive'] * 100:.2f}% "
            f"{verdict} best single kernel "
            f"{best} {singles[best] * 100:.2f}% on aggregate stored bytes"
        )
    return block


# ----------------------------------------------------------------------
# Log-structured backing store: sequential-append win by device era
# ----------------------------------------------------------------------
#
# The log-structured store converts the fragment store's scattered
# fragment writes into batched sequential segment appends, the classic
# Rosenblum/Ousterhout trade: pay cleaner copies to buy streaming
# writes.  On the paper's RZ57 (where a random write eats a seek plus
# half a rotation) that trade should win outright; on a modern SSD the
# rotational window vanishes and the advantage should shrink toward
# per-op overhead amortization.  This sweep measures both regimes.

#: The device presets the comparison sweeps (column order).
LFS_DEVICES: Tuple[str, ...] = ("rz57", "modern-ssd")

#: The store configurations compared per device: the fragment store as
#: the seed baseline, then the log-structured store in durable-per-
#: record mode (every append is its own device write, as the crash
#: harness forces) and in batched mode (32-KByte write-outs).  The
#: ``lfs-sync`` / ``lfs-batch`` ratio is the sequential-append win of
#: batching; it should be large on the RZ57 (each small write eats a
#: seek-plus-rotation latency) and near 1 on the SSD (no rotational
#: window to amortize).
LFS_MODES: Tuple[str, ...] = ("frag", "lfs-sync", "lfs-batch")

#: The lfs sweep's store geometry: 32-KByte segments, a log sized well
#: past the working sets so cleaning is policy-driven rather than
#: space-panic-driven.
LFS_STORE_SPEC: Mapping[str, Any] = {
    "segment_bytes": 32768,
    "total_segments": 2048,
}


def _lfs_extract(cell: Mapping[str, Any], machine: Machine,
                 result: RunResult, _host_seconds: float) -> Dict[str, Any]:
    """A (device, store, workload) cell: ``config["store"]`` selects the
    backing store and ``config["device"]`` the device era.  Reports
    elapsed virtual time and the store's write/cleaning traffic (field
    names differ between the two stores; the common ones are
    normalized).
    """
    counters = machine.fragstore.counters.snapshot()
    out: Dict[str, Any] = {
        "elapsed_seconds": result.elapsed_seconds,
        "faults_total": result.metrics_snapshot["faults"]["total"],
        "pages_put": counters["pages_put"],
        "batch_flushes": counters["batch_flushes"],
        "store_counters": counters,
    }
    if cell["config"].get("store") == "lfs":
        out["segments_cleaned"] = counters["segments_cleaned"]
        out["cleaner_copied_bytes"] = counters["cleaner_copied_bytes"]
        out["appended_bytes"] = counters["appended_bytes"]
    return out


def lfs_points(scale: float) -> List[SweepPoint]:
    """The (device x store x workload) grid for ``sweep --experiment lfs``."""
    memory = mbytes(6 * scale)
    points: List[SweepPoint] = []
    for wname, workload in _paging_pair(scale).items():
        for device in LFS_DEVICES:
            for mode in LFS_MODES:
                config: Dict[str, Any] = {
                    "memory_bytes": memory,
                    "device": device,
                    "store": "frag" if mode == "frag" else "lfs",
                }
                if mode != "frag":
                    config["log_store"] = dict(
                        LFS_STORE_SPEC,
                        sync_appends=(mode == "lfs-sync"),
                    )
                points.append(cell_point(
                    "repro.experiments:run_lfs_point",
                    f"lfs/{device}/{mode}/{wname}", config, workload,
                ))
    return points


def render_lfs(cells: Mapping[str, Mapping[str, Any]]) -> str:
    """The store-comparison table, from completed cell results by key."""
    rows = []
    for wname in ("thrasher", "gold-warm"):
        for device in LFS_DEVICES:
            frag, sync, batch = (cells[f"lfs/{device}/{mode}/{wname}"]
                                 for mode in LFS_MODES)
            rows.append([
                wname,
                device,
                f"{frag['elapsed_seconds']:.1f}",
                f"{sync['elapsed_seconds']:.1f}",
                f"{batch['elapsed_seconds']:.1f}",
                (f"{sync['elapsed_seconds'] / batch['elapsed_seconds']:.2f}x"
                 if batch["elapsed_seconds"] else "-"),
                str(batch["segments_cleaned"]),
                f"{batch['cleaner_copied_bytes'] / 1024:.0f}",
            ])
    return render_table(
        ["workload", "device", "frag (s)", "lfs sync (s)",
         "lfs batched (s)", "batching win", "segments cleaned",
         "cleaner copies (KB)"],
        rows,
        title="Log-structured store: batched 32-KB write-outs versus "
              "durable-per-record appends, by device era",
    )


# ----------------------------------------------------------------------
# Closed-loop control: autotuned tier geometry versus every static one
# ----------------------------------------------------------------------
#
# The control plane (repro.control) claims that no fixed tier geometry
# is right for phase-changing traffic: an app-relaunch storm, a
# multiprogrammed mix, and a diurnal working set each reward a different
# L1 cap and warm-pool bias at different times.  This sweep pits one
# controller-enabled run against a grid of static two-tier geometries on
# each workload; the verdict compares total charged seconds and the
# compressed-memory hit rate against the *best* static cell.

#: Traffic classes of the comparison (column order).
CONTROL_WORKLOADS: Tuple[str, ...] = ("relaunch", "multiprogram", "diurnal")

#: Static two-tier geometries swept per workload, as L1-cap fractions of
#: total frames (plus the allocator-sized preset).  The autotuned arm
#: starts from ``CONTROL_START`` and lets the controller move it.
CONTROL_GEOMETRIES: Tuple[Tuple[str, Optional[float]], ...] = (
    ("l1-small", 1 / 24),
    ("l1-medium", 1 / 8),
    ("l1-large", 1 / 3),
)

#: The geometry the autotuned arm starts from (worst-case neutral: the
#: middle of the static grid).
CONTROL_START = "l1-medium"


def _control_workload_specs(scale: float) -> Dict[str, Mapping[str, Any]]:
    """The three traffic classes, sized against ``mbytes(6 * scale)``."""
    # The mix is the catalogue's with smaller programs (8/6/5 MBytes
    # where ``run --workload multiprogram`` has 12/8/6).
    programs = [
        catalog.spec("compare", scale, band_bytes=mbytes(8 * scale)),
        catalog.spec("sort-partial", scale, data_bytes=mbytes(6 * scale)),
        catalog.spec("synthetic", scale,
                     address_space_bytes=mbytes(5 * scale),
                     references=max(500, int(30000 * scale))),
    ]
    return {
        "relaunch": catalog.spec("relaunch", scale),
        "multiprogram": catalog.spec("multiprogram", scale,
                                     programs=programs),
        "diurnal": catalog.spec("diurnal", scale),
    }


def _control_extract(_cell: Mapping[str, Any], machine: Machine,
                     result: RunResult,
                     _host_seconds: float) -> Dict[str, Any]:
    """A (geometry, workload) cell; ``config["control"]`` (when present)
    enables the closed-loop controller, making the cell the autotuned
    arm, whose controller action counters it adds."""
    cell = _chain_fields(machine, result)
    if result.control_counters is not None:
        cell["control"] = result.control_counters
    return cell


def control_points(scale: float) -> List[SweepPoint]:
    """The (geometry x workload) grid plus one autotuned arm per
    workload (``sweep --experiment control``)."""
    memory = mbytes(6 * scale)
    total_frames = memory // 4096
    workloads = _control_workload_specs(scale)

    def l1_cap(fraction: float) -> int:
        return max(8, int(total_frames * fraction))

    start_cap = l1_cap(dict(CONTROL_GEOMETRIES)[CONTROL_START])
    runner = "repro.experiments:run_control_point"
    points: List[SweepPoint] = []
    for wname, workload in workloads.items():
        for gname, fraction in CONTROL_GEOMETRIES:
            points.append(cell_point(
                runner, f"control/{wname}/{gname}",
                {"memory_bytes": memory,
                 "tier_l1_frames": l1_cap(fraction)},
                workload,
            ))
        points.append(cell_point(
            runner, f"control/{wname}/autotuned",
            {"memory_bytes": memory, "tier_l1_frames": start_cap,
             "control": {"seed": 0}},
            workload,
        ))
    return points


def render_control(cells: Mapping[str, Mapping[str, Any]]) -> str:
    """The control-comparison table plus per-workload verdict lines.

    The verdict compares the autotuned arm against the *best* static
    geometry by total charged seconds (ties broken toward static); a
    higher compressed-memory hit rate also counts as a win.
    """
    rows, verdicts = [], []
    for wname in CONTROL_WORKLOADS:
        arms = {arm: cells[f"control/{wname}/{arm}"]
                for arm in [g for g, _ in CONTROL_GEOMETRIES] + ["autotuned"]}
        for arm, cell in arms.items():
            actions = (cell.get("control") or {}).get("actions")
            rows.append([
                wname,
                arm,
                f"{cell['elapsed_seconds']:.2f}",
                f"{cell['compressed_hit_rate'] * 100:.1f}%",
                f"{cell['effective_memory_ratio']:.2f}",
                str(actions) if actions is not None else "-",
            ])
        autotuned = arms.pop("autotuned")
        best = min(arms, key=lambda arm: arms[arm]["elapsed_seconds"])
        best_cell = arms[best]
        wins = (
            autotuned["elapsed_seconds"] < best_cell["elapsed_seconds"]
            or autotuned["compressed_hit_rate"]
            > best_cell["compressed_hit_rate"]
        )
        verdicts.append(
            f"control verdict {wname}: autotuned "
            f"{autotuned['elapsed_seconds']:.2f}s "
            f"(hit {autotuned['compressed_hit_rate'] * 100:.1f}%) vs "
            f"best static {best} {best_cell['elapsed_seconds']:.2f}s "
            f"(hit {best_cell['compressed_hit_rate'] * 100:.1f}%) -- "
            f"autotuned {'wins' if wins else 'does not win'}"
        )
    block = render_table(
        ["workload", "geometry", "charged (s)", "compressed hit rate",
         "effective memory", "control actions"],
        rows,
        title="Closed-loop control: autotuned geometry versus the "
              "static grid",
    )
    return block + "\n\n" + "\n".join(verdicts)


# ----------------------------------------------------------------------
# Experiment registry: the single source the CLI derives its
# ``sweep --experiment`` choices (and render dispatch) from
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One experiment the CLI can run by name: its grid, how a point
    runs and becomes a flat cell, and its tables.

    Attributes:
        name: the ``--experiment`` token.
        points: builds the sweep grid; called as ``points(scale,
            options)`` where ``options`` carries the command's extras
            (``mode``/``seed`` for figure3, ``names`` for table1;
            ignored by the rest).
        render: the text the experiment prints, from its completed cells
            by key in point order.
        extract: a finished run as the point's cell: ``extract(cell,
            std, cc)`` for a pair, else ``extract(cell, machine, result,
            host_seconds)``, the host clock bracketing the run alone.
        pair: run the cell on the standard and the compression-cache
            machine rather than once as configured.
        cell: the cell spec a point spec runs, merged over the point
            spec; ``None`` when the point spec is its own cell.
    """

    name: str
    points: Callable[[float, Mapping[str, Any]], List[SweepPoint]]
    render: Callable[[Mapping[str, Mapping[str, Any]]], str]
    extract: Callable[..., Dict[str, Any]]
    pair: bool = False
    cell: Optional[Callable[[Mapping[str, Any]], Dict[str, Any]]] = None


def run_point(name: str, spec: Mapping[str, Any]) -> Dict[str, Any]:
    """The one sweep runner: a point of experiment ``name``, run as its
    row says, as a flat cell.

    The spec fully determines the simulation, so this is a pure
    function safe to execute in any worker process.
    """
    experiment = EXPERIMENTS[name]
    cell = {**spec, **experiment.cell(spec)} if experiment.cell else spec
    if experiment.pair:
        return experiment.extract(cell, *run_pair(cell))
    machine, workload = build_cell(cell)
    start = time.perf_counter()
    result = _run(machine, workload, cell)
    return experiment.extract(cell, machine, result,
                              time.perf_counter() - start)


#: The runners the points name by import path, resolved in whatever
#: process runs the point; a checkpoint records the path, so these names
#: stay.
run_figure3_point = partial(run_point, "figure3")
run_table1_point = partial(run_point, "table1")
run_ablation_point = partial(run_point, "ablations")
run_tiers_point = partial(run_point, "tiers")
run_kernels_point = partial(run_point, "kernels")
run_lfs_point = partial(run_point, "lfs")
run_control_point = partial(run_point, "control")


def _figure3_experiment_points(
    scale: float, options: Mapping[str, Any]
) -> List[SweepPoint]:
    writes = {"rw": [True], "ro": [False], "both": [False, True]}[
        options.get("mode", "both")
    ]
    return [point for write in writes
            for point in figure3_points(write, scale=scale,
                                        seed=options.get("seed", 0))]


#: Every experiment ``sweep --experiment`` accepts, in display order.
#: The CLI derives its argparse choices from this table and runs every
#: row through one path — add an entry here and the command-line
#: surface follows (a drift test pins the equivalence).
EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment("figure3", _figure3_experiment_points, render_figure3,
                   _figure3_extract, pair=True, cell=_figure3_cell),
        Experiment("table1",
                   lambda scale, opts: table1_points(
                       scale=scale, names=opts.get("names")),
                   lambda cells: render_table1(table1_rows(cells)),
                   _table1_extract, pair=True, cell=_table1_cell),
        Experiment("ablations", lambda scale, _opts: ablation_points(scale),
                   render_ablations, _ablation_extract, pair=True),
        Experiment("tiers", lambda scale, _opts: tiers_points(scale),
                   render_tiers, _tiers_extract),
        Experiment("kernels", lambda scale, _opts: kernels_points(scale),
                   render_kernels, _kernels_extract),
        Experiment("lfs", lambda scale, _opts: lfs_points(scale),
                   render_lfs, _lfs_extract),
        Experiment("control", lambda scale, _opts: control_points(scale),
                   render_control, _control_extract),
    )
}


def experiment_names() -> Tuple[str, ...]:
    """The registry's names, in display order."""
    return tuple(EXPERIMENTS)

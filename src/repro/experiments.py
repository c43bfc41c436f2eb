"""Experiment harnesses regenerating the paper's tables and figures.

Every experiment is one row of :data:`EXPERIMENTS`: a grid of
independent sweep points and a renderer over the completed cells by key.
The CLI's ``figure3``, ``table1`` and ``sweep`` commands run a row;
``benchmarks/`` and ``tests/`` assert on the typed views
(:class:`Figure3Result`, :class:`Table1Row`) built from the same cells.

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

from dataclasses import asdict, dataclass, field
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
from .workloads import (
    CacheSimWorkload,
    CompareWorkload,
    GoldWorkload,
    SortWorkload,
    Thrasher,
    Workload,
    catalog,
)

# ----------------------------------------------------------------------
# Generic two-system runner
# ----------------------------------------------------------------------


def _run_single(workload: Workload, config: MachineConfig,
                setup: bool = False) -> RunResult:
    machine = Machine(config, workload.build())
    engine = SimulationEngine(machine)
    if setup:
        engine.run(workload.setup_references())
        machine.reset_measurement()
    return engine.run(workload.references())


def run_pair(
    workload_factory: Callable[[], Workload],
    config: MachineConfig,
    setup: bool = False,
) -> Tuple[RunResult, RunResult]:
    """Run a workload on the standard machine and the compression-cache
    machine; returns (std_result, cc_result)."""
    std, cc = (
        _run_single(workload_factory(),
                    config.variant(compression_cache=compression), setup)
        for compression in (False, True)
    )
    return std, cc


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
        if self.cc_ms_per_access == 0:
            return float("inf")
        return self.std_ms_per_access / self.cc_ms_per_access


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

#: Import path of the Figure 3 point runner (see ``repro.sweep``).
FIGURE3_RUNNER = "repro.experiments:run_figure3_point"


def run_figure3_point(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep runner: one x-position of Figure 3, both systems.

    The spec fully determines the simulation (scale, address-space
    multiple, access mode, cycles, content seed), so this is a pure
    function safe to execute in any worker process.
    """
    scale = spec["scale"]
    memory = mbytes(6 * scale)
    space = int(memory * spec["multiple"])
    config = MachineConfig(memory_bytes=memory)
    std, cc = run_pair(
        lambda: Thrasher(
            space,
            cycles=spec["cycles"],
            write=spec["write"],
            seed=spec["seed"],
        ),
        config,
    )
    accesses = std.metrics_snapshot["accesses"]
    return {
        "address_space_bytes": space,
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
    """Decompose one Figure 3 curve pair into independent sweep points."""
    if points is None:
        points = FIGURE3_MULTIPLES
    mode = "rw" if write else "ro"
    return [
        SweepPoint(
            runner=FIGURE3_RUNNER,
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
    order.  Raises :class:`repro.sweep.SweepError` on a failed point."""
    return run_sweep(points, **sweep_options).cells(points)


def figure3_sweep(
    write: bool,
    scale: float = 1.0,
    points: Optional[Sequence[float]] = None,
    cycles: int = 3,
    seed: int = 0,
    **sweep_options: Any,
) -> Figure3Result:
    """Regenerate one pair of Figure 3 curves.

    Args:
        write: rw (True) or ro (False) thrasher.
        scale: 1.0 = the paper's ~6 MBytes of user memory and 2-40 MByte
            sweep; smaller values shrink both together.
        points: address-space sizes as multiples of user memory
            (default mirrors the paper's 0.3x-6.7x span).
        cycles: passes per measurement.
        seed: content-generation seed carried into every point.
        sweep_options: as :func:`run_cells` takes them (output is
            identical at any ``jobs`` — see ``docs/sweep.md``).
    """
    cells = run_cells(
        figure3_points(write, scale=scale, points=points, cycles=cycles,
                       seed=seed),
        **sweep_options,
    )
    return Figure3Result.from_cells("rw" if write else "ro", cells)


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
TABLE1_ORDER = (
    "compare",
    "isca",
    "sort_partial",
    "gold_create",
    "gold_cold",
    "sort_random",
    "gold_warm",
)


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
        if self.cc_seconds == 0:
            return float("inf")
        return self.std_seconds / self.cc_seconds


def _table1_workloads(scale: float) -> Dict[str, Tuple[Callable[[], Workload], bool]]:
    """Factories (and needs-setup flags) for the seven Table 1 rows.

    Sizes at scale=1 mirror the measured system: 14 MBytes of user
    memory, address spaces in the 18-26 MByte range so every application
    pages.
    """
    def sz(mb: float) -> int:
        return mbytes(mb * scale)

    # Activity levels are calibration constants: together with the
    # paper's Time(std) targets they set each application's
    # paging-versus-CPU balance (see EXPERIMENTS.md).  The gold index is
    # sized past the compressed capacity of memory — the paper's gold
    # pays "a full 4-Kbyte read from backing store" on its nonsequential
    # faults, so its working set cannot fit even compressed — and its
    # query hot set sits just above what the standard system keeps
    # resident, which is what turns the compression cache's memory
    # appetite into extra faults (the Section 5.2 slowdown mechanism).
    events = max(500, int(570000 * scale))
    return {
        "compare": (lambda: CompareWorkload(sz(24), round_trips=3), False),
        "isca": (lambda: CacheSimWorkload(sz(20), events=events), False),
        "sort_partial": (
            lambda: SortWorkload(sz(12), partial=True,
                                 pointer_overhead=1.0),
            False,
        ),
        "gold_create": (
            lambda: GoldWorkload(
                "create", sz(30),
                operations=max(30, int(7000 * scale)),
                hot_fraction=0.28, hot_probability=0.85, text_fraction=0.5,
            ),
            False,
        ),
        "gold_cold": (
            lambda: GoldWorkload(
                "cold", sz(30),
                operations=max(30, int(32500 * scale)),
                hot_fraction=0.3, hot_probability=0.8,
            ),
            True,
        ),
        "sort_random": (
            lambda: SortWorkload(sz(12), partial=False,
                                 pointer_overhead=1.0),
            False,
        ),
        "gold_warm": (
            lambda: GoldWorkload(
                "warm", sz(30),
                operations=max(30, int(61000 * scale)),
                hot_fraction=0.3, hot_probability=0.8,
            ),
            True,
        ),
    }


def table1_row(
    name: str,
    scale: float = 1.0,
    calibrate: bool = True,
) -> Table1Row:
    """Measure one Table 1 application at the given scale."""
    factories = _table1_workloads(scale)
    if name not in factories:
        known = ", ".join(TABLE1_ORDER)
        raise KeyError(f"unknown Table 1 application {name!r}; known: {known}")
    factory, needs_setup = factories[name]
    config = MachineConfig(memory_bytes=mbytes(14 * scale))

    compute_per_ref = 0.0
    if calibrate:
        # Pass 1: standard machine, zero app CPU -> pure paging time.
        probe = factory()
        paging = _run_single(
            probe, config.variant(compression_cache=False), setup=needs_setup
        )
        refs = probe.reference_count()
        target = PAPER_TABLE1[name][0] * scale
        compute_per_ref = max(0.0, (target - paging.elapsed_seconds) / refs)

    def calibrated() -> Workload:
        workload = factory()
        workload.compute_seconds_per_ref = compute_per_ref
        return workload

    std, cc = run_pair(calibrated, config, setup=needs_setup)
    return Table1Row(
        name=name,
        std_seconds=std.elapsed_seconds,
        cc_seconds=cc.elapsed_seconds,
        ratio_percent=cc.compression_ratio_percent,
        uncompressible_percent=cc.uncompressible_percent,
        compute_seconds_per_ref=compute_per_ref,
    )


#: Import path of the Table 1 row runner (see ``repro.sweep``).
TABLE1_RUNNER = "repro.experiments:run_table1_point"


def run_table1_point(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep runner: one full Table 1 row (calibration included).

    Calibration is *inside* the point — each row's CPU charge depends
    only on its own standard-system probe run — so rows are independent
    and can execute on any worker in any order.
    """
    return asdict(table1_row(
        spec["name"], scale=spec["scale"], calibrate=spec["calibrate"]
    ))


def table1_points(
    scale: float = 1.0,
    calibrate: bool = True,
    names: Optional[Sequence[str]] = None,
) -> List[SweepPoint]:
    """Decompose Table 1 into one sweep point per application row."""
    return [
        SweepPoint(
            runner=TABLE1_RUNNER,
            spec={"name": name, "scale": scale, "calibrate": calibrate},
            key=f"table1/s{scale:g}/{'cal' if calibrate else 'raw'}/{name}",
        )
        for name in (names if names is not None else TABLE1_ORDER)
    ]


def table1_rows(cells: Mapping[str, Mapping[str, Any]]) -> List[Table1Row]:
    """The typed rows of completed Table 1 cells, in cell order."""
    return [Table1Row(**record) for record in cells.values()]


def table1(
    scale: float = 1.0,
    calibrate: bool = True,
    names: Optional[Sequence[str]] = None,
    **sweep_options: Any,
) -> List[Table1Row]:
    """Measure all (or selected) Table 1 rows; ``sweep_options`` as
    :func:`run_cells` takes them."""
    return table1_rows(run_cells(
        table1_points(scale=scale, calibrate=calibrate, names=names),
        **sweep_options,
    ))


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


# ----------------------------------------------------------------------
# Sweep cells: generic (config, workload) points
# ----------------------------------------------------------------------
#
# Every grid below is made of cells whose spec encodes a machine
# configuration and a workload as JSON primitives; ``build_cell``
# rebuilds the real objects inside the worker and ``run_cell`` runs them.


def cell_point(runner: str, key: str, config: Mapping[str, Any],
               workload: Mapping[str, Any]) -> SweepPoint:
    """One ``{"config": {...}, "workload": {...}}`` cell as a sweep
    point for ``runner``."""
    return SweepPoint(
        runner=runner,
        spec={"config": dict(config), "workload": dict(workload)},
        key=key,
    )


def build_cell(spec: Mapping[str, Any]) -> Tuple[Machine, Workload]:
    """The machine one ``{"config": {...}, "workload": {...}}`` cell
    describes (:meth:`MachineConfig.from_spec`,
    :func:`repro.workloads.catalog.from_spec`), with its workload."""
    workload = catalog.from_spec(spec["workload"])
    machine = Machine(MachineConfig.from_spec(spec["config"]),
                      workload.build())
    return machine, workload


def run_cell(spec: Mapping[str, Any]) -> Tuple[Machine, RunResult]:
    """Build and run one cell: the machine as the run left it (tier
    chain, stores, counters) and the run's result."""
    machine, workload = build_cell(spec)
    return machine, SimulationEngine(machine).run(workload.references())


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

#: Import path of the ablation cell runner (see ``repro.sweep``).
ABLATION_RUNNER = "repro.experiments:run_ablation_point"


def run_ablation_point(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep runner: one ablation cell (std and cc runs of one config).

    Spec: ``{"config": {...}, "workload": {...}}`` as :func:`build_cell`
    decodes it.  Returns elapsed times and the cc speedup.
    """
    std, cc = run_pair(
        lambda: catalog.from_spec(spec["workload"]),
        MachineConfig.from_spec(spec["config"]),
    )
    speedup = (
        float("inf") if cc.elapsed_seconds == 0
        else std.elapsed_seconds / cc.elapsed_seconds
    )
    return {
        "std_seconds": std.elapsed_seconds,
        "cc_seconds": cc.elapsed_seconds,
        "speedup": speedup,
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
                    ABLATION_RUNNER, key + suffix,
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

#: Import path of the tier-comparison runner (see ``repro.sweep``).
TIERS_RUNNER = "repro.experiments:run_tiers_point"

#: The chains the comparison sweeps: the paper's single cache and the
#: fast-L1/high-ratio-L2 preset (see ``repro.tiers.spec``).
TIERS_CHAINS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("1-tier", None),
    ("2-tier", "two-tier"),
)


def _run_chain_cell(spec: Mapping[str, Any]) -> Tuple[Machine, RunResult,
                                                      Dict[str, Any]]:
    """Run one cell and split its faults: the machine, the result, and
    the fields the tier and control comparisons share."""
    machine, result = run_cell(spec)
    faults = result.metrics_snapshot["faults"]
    total = faults["total"]
    return machine, result, {
        "elapsed_seconds": result.elapsed_seconds,
        "faults_total": total,
        "compressed_hit_rate": (
            faults["from_ccache"] / total if total else 0.0
        ),
        "effective_memory_ratio": effective_memory(machine)[1],
        "demoted_pages": machine.chain.demoted_pages(),
    }


def run_tiers_point(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep runner: one (chain, workload) cell of the tier comparison.

    Spec as :func:`run_cell` takes it; ``config["tiers"]`` selects the
    chain (absent = the default single cache).  Reports the
    compressed-memory hit rate, the end-of-run effective memory
    (resident + compressed pages held, as a ratio of physical frames),
    and the per-tier snapshots.
    """
    machine, _result, cell = _run_chain_cell(spec)
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
                TIERS_RUNNER, f"tiers/{cname}/{wname}", config, workload
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

#: Import path of the kernel-comparison runner (see ``repro.sweep``).
KERNELS_RUNNER = "repro.experiments:run_kernels_point"

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


def run_kernels_point(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep runner: one (kernel, workload) cell of the comparison.

    Spec as :func:`build_cell` takes it; ``config["compressor"]``
    selects the kernel.  The simulated results (faults, stored bytes,
    ratios) are deterministic; the ``host_seconds``/``refs_per_second``
    fields are this host's wall-clock throughput, which the sweep digest
    leaves out (:data:`~repro.sweep.WALL_CLOCK_FIELDS`).
    """
    import time

    # The host clock brackets the run alone, not the cell's set-up.
    machine, workload = build_cell(spec)
    t0 = time.perf_counter()
    result = SimulationEngine(machine).run(workload.references())
    host_seconds = time.perf_counter() - t0
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
                KERNELS_RUNNER, f"kernels/{kernel}/{wname}",
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

#: Import path of the lfs-comparison runner (see ``repro.sweep``).
LFS_RUNNER = "repro.experiments:run_lfs_point"

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


def run_lfs_point(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep runner: one (device, store, workload) cell.

    Spec as :func:`run_cell` takes it; ``config["store"]`` selects the
    backing store and ``config["device"]`` the device era.  Reports
    elapsed virtual time and the store's write/cleaning traffic (field
    names differ between the two stores; the common ones are
    normalized).
    """
    machine, result = run_cell(spec)
    counters = machine.fragstore.counters.snapshot()
    out: Dict[str, Any] = {
        "elapsed_seconds": result.elapsed_seconds,
        "faults_total": result.metrics_snapshot["faults"]["total"],
        "pages_put": counters["pages_put"],
        "batch_flushes": counters["batch_flushes"],
        "store_counters": counters,
    }
    if spec["config"].get("store") == "lfs":
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
                    LFS_RUNNER, f"lfs/{device}/{mode}/{wname}",
                    config, workload,
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

#: Import path of the control-comparison runner (see ``repro.sweep``).
CONTROL_RUNNER = "repro.experiments:run_control_point"

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


def run_control_point(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep runner: one (geometry, workload) cell of the comparison.

    Spec as :func:`run_cell` takes it; ``config["control"]`` (when
    present) enables the closed-loop controller, making the cell the
    autotuned arm.  Reports total charged seconds, the compressed-memory
    hit rate, effective memory, and — for the autotuned arm — the
    controller's action counters.
    """
    _machine, result, cell = _run_chain_cell(spec)
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
    points: List[SweepPoint] = []
    for wname, workload in workloads.items():
        for gname, fraction in CONTROL_GEOMETRIES:
            points.append(cell_point(
                CONTROL_RUNNER, f"control/{wname}/{gname}",
                {"memory_bytes": memory,
                 "tier_l1_frames": l1_cap(fraction)},
                workload,
            ))
        points.append(cell_point(
            CONTROL_RUNNER, f"control/{wname}/autotuned",
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
    """One experiment the CLI can run by name: a grid and its tables.

    Attributes:
        name: the ``--experiment`` token.
        points: builds the sweep grid; called as ``points(scale,
            options)`` where ``options`` carries the command's extras
            (``mode``/``seed`` for figure3, ``names`` for table1;
            ignored by the rest).
        render: the text the experiment prints, from its completed cells
            by key in point order.
    """

    name: str
    points: Callable[[float, Mapping[str, Any]], List[SweepPoint]]
    render: Callable[[Mapping[str, Mapping[str, Any]]], str]


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
        Experiment("figure3", _figure3_experiment_points, render_figure3),
        Experiment("table1",
                   lambda scale, opts: table1_points(
                       scale=scale, names=opts.get("names")),
                   lambda cells: render_table1(table1_rows(cells))),
        Experiment("ablations", lambda scale, _opts: ablation_points(scale),
                   render_ablations),
        Experiment("tiers", lambda scale, _opts: tiers_points(scale),
                   render_tiers),
        Experiment("kernels", lambda scale, _opts: kernels_points(scale),
                   render_kernels),
        Experiment("lfs", lambda scale, _opts: lfs_points(scale),
                   render_lfs),
        Experiment("control", lambda scale, _opts: control_points(scale),
                   render_control),
    )
}


def experiment_names() -> Tuple[str, ...]:
    """The registry's names, in display order."""
    return tuple(EXPERIMENTS)

"""``sim-cold``, ``sim-warm`` and ``sim-hier``: the paging simulator.

One *run* is one reference list fed to ``SimulationEngine.run`` on a
freshly built machine; one *pass* is every run of the workload, in
order.  The three workloads share the simulator and differ in which
layer does the work:

* ``sim-cold`` empties the process-wide kernel-result cache before each
  run, so the compression kernels do about half the work;
* ``sim-warm`` runs the same reference lists after an untimed pass has
  filled that cache, so the per-reference engine/vm/ccache loop does
  nearly all of it and the kernels about none;
* ``sim-hier`` runs the configurations the default machine never
  touches (two tiers, adaptive selection, the log store, the control
  plane), each cold then warm.
"""

from __future__ import annotations

import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from harness import (
    HERE,
    Chunk,
    WorkloadResult,
    best_seconds,
    passes_for,
    setup_due,
    time_setup,
)

from repro.compression.sampler import clear_shared_results
from repro.control.controller import ControlConfig
from repro.mem.page import mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.tiers.spec import parse_tier_specs
from repro.workloads import (
    AppRelaunchWorkload,
    CacheSimWorkload,
    CompareWorkload,
    GoldWorkload,
    MultiProgramWorkload,
    SortWorkload,
    SyntheticWorkload,
    Thrasher,
    contentgen,
)

#: Trace sizes relative to the paper's; memory is ``6 * scale`` MBytes,
#: the ratio `repro perf` uses.  Small, so that a pass is short and a
#: run holds many (what steadies the timing is the number of copies of
#: each piece of work, not its size), yet every trace pages (thrasher:
#: 123 pages over 61 frames).
SCALE = 0.04
#: sim-hier makes eight engine runs a pass, two of them adaptive and
#: cold; a smaller scale keeps its pass near the others' length.
HIER_SCALE = 0.03
QUICK_SCALE = 0.025

#: References per timed chunk, which is also one latency sample (about
#: 2 ms cold, 0.5 ms warm).  A single reference is either a resident
#: hit (microseconds) or a fault (up to milliseconds), and about half
#: are each, so a per-reference figure sits on the boundary between the
#: two and jumps with the seed (62% spread measured); the time for a
#: burst of 16 is well-conditioned.
BURST_REFS = 16

#: Reference-host duration of one pass, used only to turn ``--seconds``
#: into a pass count.
PASS_SECONDS = {"sim-cold": 1.25, "sim-warm": 0.4, "sim-hier": 1.9}

_clock = time.perf_counter

EXPECTED_PATH = HERE / "expected.json"


def _paper_traces(scale: float, seed: int) -> Dict[str, Callable[[], object]]:
    """The paper's six applications (Table 1 plus the thrasher and the
    multiprogrammed mix), sized as ``repro.cli`` sizes them."""
    s = scale
    return {
        "thrasher": lambda: Thrasher(mbytes(12 * s), cycles=3, seed=seed),
        "compare": lambda: CompareWorkload(
            mbytes(24 * s), round_trips=2, seed=seed),
        "isca": lambda: CacheSimWorkload(
            mbytes(20 * s), events=max(500, int(60000 * s)), seed=seed),
        "sort-random": lambda: SortWorkload(
            mbytes(12 * s), partial=False, seed=seed),
        "gold-warm": lambda: GoldWorkload(
            "warm", mbytes(30 * s), operations=max(30, int(8000 * s)),
            seed=seed),
        "multiprogram": lambda: _multiprogram(s, seed),
    }


def _multiprogram(s: float, seed: int) -> MultiProgramWorkload:
    return MultiProgramWorkload(
        [
            CompareWorkload(mbytes(12 * s), round_trips=2, seed=seed),
            SortWorkload(mbytes(8 * s), partial=True, seed=seed),
            SyntheticWorkload(
                mbytes(6 * s), references=max(500, int(30000 * s)),
                seed=seed),
        ],
        quantum=64,
    )


@dataclass
class Run:
    """One engine run of a pass: a label, a trace and a machine config."""

    label: str
    trace: str
    config: MachineConfig
    #: empty the kernel-result cache first (a cold run).
    cold: bool


@dataclass
class Inputs:
    """Everything set-up produces: runs plus their reference lists."""

    runs: List[Run]
    factories: Dict[str, Callable[[], object]]
    references: Dict[str, list]
    build_seconds: float
    refs_seconds: float


def _plan(name: str, scale: float, seed: int
          ) -> Tuple[List[Run], Dict[str, Callable[[], object]]]:
    memory = mbytes(6 * scale)
    base = MachineConfig(memory_bytes=memory)
    if name in ("sim-cold", "sim-warm"):
        factories = _paper_traces(scale, seed)
        cold = name == "sim-cold"
        runs = [Run(trace, trace, base, cold) for trace in factories]
        return runs, factories
    factories = {
        "multiprogram": lambda: _multiprogram(scale, seed),
        "relaunch": lambda: AppRelaunchWorkload(
            mbytes(4 * scale), apps=3, sessions=24, seed=seed),
    }
    variants = (
        ("two-tier", "multiprogram",
         base.variant(tiers=parse_tier_specs("two-tier"))),
        ("adaptive", "multiprogram", base.variant(compressor="adaptive")),
        ("lfs", "multiprogram", base.variant(store="lfs")),
        ("control", "relaunch", base.variant(control=ControlConfig())),
    )
    runs = []
    for label, trace, config in variants:
        runs.append(Run(f"{label}/cold", trace, config, True))
        runs.append(Run(f"{label}/warm", trace, config, False))
    return runs, factories


def _set_up(name: str, scale: float, seed: int) -> Inputs:
    runs, factories = _plan(name, scale, seed)
    start = _clock()
    built = {trace: factory() for trace, factory in factories.items()}
    for workload in built.values():
        workload.build()
    built_at = _clock()
    references = {
        trace: list(workload.references())
        for trace, workload in built.items()
    }
    return Inputs(runs, factories, references,
                  built_at - start, _clock() - built_at)


def _timed(references: Iterable, stamps: array) -> Iterable:
    """Feed references to the engine, stamping the clock at each pull:
    the gap between two stamps is the engine's time for one reference."""
    append = stamps.append
    for ref in references:
        append(_clock())
        yield ref
    append(_clock())


def stat_view(result) -> Dict[str, object]:
    """The narrow, digest-independent view of a run's simulated result
    that ``expected.json`` pins: adding a telemetry key cannot move it."""
    return {
        "elapsed_seconds": round(result.elapsed_seconds, 9),
        "faults": result.metrics_snapshot["faults"]["total"],
        "compression_ratio_percent": round(
            result.compression_ratio_percent, 9),
        "time_breakdown": {
            key: round(value, 9)
            for key, value in sorted(result.time_breakdown.items())
        },
    }


def _one_pass(inputs: Inputs) -> Tuple[List[Chunk], List[object]]:
    """Run every run once; returns the pass's chunks and RunResults."""
    chunks: List[Chunk] = []
    results = []
    for run in inputs.runs:
        # A run mutates page contents, so each gets its own build (cheap:
        # set-up left the content generators' memos warm).
        workload = inputs.factories[run.trace]()
        machine = Machine(run.config, workload.build())
        engine = SimulationEngine(machine)
        stamps = array("d")
        if run.cold:
            clear_shared_results()
        results.append(
            engine.run(_timed(inputs.references[run.trace], stamps))
        )
        count = len(stamps) - 1
        for lo in range(0, count, BURST_REFS):
            hi = min(lo + BURST_REFS, count)
            burst = stamps[hi] - stamps[lo]
            chunks.append(Chunk(burst, hi - lo, (burst,)))
    return chunks, results


def _counts(results: List[object], page_size: int) -> Dict[str, float]:
    """Exact simulated counts of one pass, summed over its runs."""
    served = from_cache = written = evicted = 0
    ratios = []
    for result in results:
        faults = result.metrics_snapshot["faults"]
        from_cache += faults["from_ccache"]
        served += faults["total"] - faults["zero_fill"]
        written += result.device_counters["bytes_written"]
        evicted += result.metrics_snapshot["evictions"]["total"]
        ratios.append(result.compression_ratio_percent / 100.0)
    return {
        "hit_rate": from_cache / served,
        "resident_fraction": sum(ratios) / len(ratios),
        "write_amp": written / (evicted * page_size),
    }


def _check(name: str, seed: int, scale: float, inputs: Inputs,
           all_results: List[List[object]], out: WorkloadResult) -> None:
    """Compare every run's stat view with the pinned one (or, for a seed
    nobody pinned, with the first pass) and check its own arithmetic."""
    pinned = None
    if scale != QUICK_SCALE and EXPECTED_PATH.exists():
        pinned = json.loads(EXPECTED_PATH.read_text()).get(
            _pin_key(name), {}).get(str(seed))
    print(f"# check: seed {seed} "
          + ("pinned in expected.json" if pinned else
             "not pinned; passes compared with each other"))
    first = [stat_view(result) for result in all_results[0]]
    for index, results in enumerate(all_results):
        for run, result, reference in zip(inputs.runs, results, first):
            refs = len(inputs.references[run.trace])
            view = stat_view(result)
            want = pinned[_pin_label(run)] if pinned else reference
            if view != want:
                out.fail(refs, f"{run.label} pass {index}: stat view "
                               f"{view} != expected {want}")
                continue
            parts = sum(result.time_breakdown.values())
            if abs(parts - result.elapsed_seconds) > 1e-6 * max(1.0, parts):
                out.fail(refs, f"{run.label}: time_breakdown sums to "
                               f"{parts}, elapsed {result.elapsed_seconds}")


def _pin_key(name: str) -> str:
    # sim-cold and sim-warm run the same traces to the same results.
    return "sim-hier" if name == "sim-hier" else "sim-paper"


def _pin_label(run: Run) -> str:
    # Kernel-cache warmth must never change a simulated result, so a
    # cold and a warm run share one pin.
    return run.label.split("/")[0]


def pin_expected(seeds: Iterable[int]) -> None:
    """Rewrite ``expected.json`` from the current tree (``--pin``)."""
    pins: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name in ("sim-cold", "sim-hier"):
        for seed in seeds:
            inputs = _set_up(
                name, HIER_SCALE if name == "sim-hier" else SCALE, seed)
            _, results = _one_pass(inputs)
            pins.setdefault(_pin_key(name), {})[str(seed)] = {
                _pin_label(run): stat_view(result)
                for run, result in zip(inputs.runs, results)
            }
            print(f"pinned {name} seed {seed}")
    # One run per line keeps the file reviewable and a fifth the size.
    groups = []
    for group in sorted(pins):
        per_seed = []
        for seed in sorted(pins[group], key=int):
            lines = ",\n".join(
                f'   "{label}": {json.dumps(view, sort_keys=True)}'
                for label, view in sorted(pins[group][seed].items()))
            per_seed.append(f'  "{seed}": {{\n{lines}\n  }}')
        groups.append(f' "{group}": {{\n' + ",\n".join(per_seed) + "\n }")
    EXPECTED_PATH.write_text("{\n" + ",\n".join(groups) + "\n}\n")


def run(name: str, seed: int, seconds: float, quick: bool,
        recorder) -> WorkloadResult:
    scale = (QUICK_SCALE if quick else
             HIER_SCALE if name == "sim-hier" else SCALE)
    passes = (2 if quick or recorder
              else passes_for(seconds, PASS_SECONDS[name]))
    out = WorkloadResult(passes=[])

    def set_up() -> Inputs:
        return time_setup(out.setup_seconds,
                          lambda: _set_up(name, scale, seed),
                          reset=contentgen.clear_caches)

    inputs = set_up()
    if name == "sim-warm":
        _one_pass(inputs)  # fills the kernel-result cache, untimed
    all_results = []
    for index in range(passes):
        if index and setup_due(index, passes):
            set_up()  # one more sample; the product is the same
        chunks, results = _one_pass(inputs)
        out.passes.append(chunks)
        all_results.append(results)
    out.attempted = passes * sum(
        len(inputs.references[run.trace]) for run in inputs.runs)
    out.counts = _counts(all_results[0], inputs.runs[0].config.page_size)
    _check(name, seed, scale, inputs, all_results, out)
    if recorder is not None:
        _traced(inputs, recorder, out)
    return out


def _traced(inputs: Inputs, recorder, out: WorkloadResult) -> None:
    """Two more passes with the layer wrappers installed."""
    from trace import layer_metrics

    traced_passes = []
    traced_results: List[object] = []
    with recorder.installed():
        for _ in range(2):
            chunks, results = _one_pass(inputs)
            traced_passes.append(chunks)
            traced_results.extend(results)
    # Building workloads between runs is the benchmark's own work and
    # sits outside the chunks: the traced wall is the engine's time.
    layers = layer_metrics(
        recorder,
        sum(c.seconds for p in traced_passes for c in p),
        best_seconds(out.passes) / best_seconds(traced_passes),
    )
    # What spans cannot see comes from the traced passes' own results.
    layers.update(_counter_layers(traced_results))
    layers["workloads.build_s"] = inputs.build_seconds
    layers["workloads.refs_gen_s"] = inputs.refs_seconds
    out.layers = layers


def _counter_layers(results: List[object]) -> Dict[str, float]:
    totals = {
        "vm.faults": 0, "compression.sampler.hits": 0,
        "compression.sampler.misses": 0, "compression.adaptive.trials": 0,
        "compression.adaptive.memo_hits": 0, "tiers.demoted_pages": 0,
        "control.actions": 0, "storage.logstore.checkpoints": 0,
        "storage.logstore.cleaner_copied_bytes": 0,
    }
    for result in results:
        totals["vm.faults"] += result.metrics_snapshot["faults"]["total"]
        totals["compression.sampler.hits"] += result.sampler_hits
        totals["compression.sampler.misses"] += result.sampler_misses
        for tier in (result.selection_counters or {}).values():
            totals["compression.adaptive.trials"] += tier["trials"]
            totals["compression.adaptive.memo_hits"] += tier["memo_hits"]
        for tier in result.tier_counters or ():
            totals["tiers.demoted_pages"] += tier.get("demoted_out", 0)
        if result.control_counters is not None:
            totals["control.actions"] += result.control_counters["actions"]
        store = result.fragstore_counters or {}
        totals["storage.logstore.checkpoints"] += store.get(
            "checkpoints_written", 0)
        totals["storage.logstore.cleaner_copied_bytes"] += store.get(
            "cleaner_copied_bytes", 0)
    return totals

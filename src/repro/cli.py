"""Command-line driver: regenerate the paper's tables and figures.

Usage::

    compression-cache run    --workload compare [--scale 0.05]
                             [--compressor lzrw1|...|adaptive]
                             [--faults plan.json] [--drain] [--paranoid]
                             [--digest | --json]
    compression-cache figure1
    compression-cache figure3 [--scale 0.2] [--mode rw|ro|both] [--jobs N]
    compression-cache table1 [--scale 0.2] [--rows compare,isca] [--jobs N]
    compression-cache sweep  [--experiment figure3|table1|ablations|
                              tiers|kernels|lfs|control]
                             [--jobs N] [--resume path.jsonl] [--timeout s]
    compression-cache demo   [--scale 0.2]
    compression-cache perf   [--quick] [--skip-sim] [--check baseline.json]
                             [--profile [N]] [--out profile.txt]
    compression-cache perf pairs PARENT CHANGE --workload kv-mixed
                             [--pairs 10] [--seed 1] [--quick]
    compression-cache serve  [--shards 4] [--port 9009]
                             [--tenants alpha=8,beta=2] [--tier-mb 8,8]
    compression-cache serve-bench [--shards 1,2,4] [--ops 20000]
                             [--check baseline.json] [--resume b.jsonl]
    compression-cache inspect [--scale 0.1]
    compression-cache trace-record --workload compare --out t.trace
                             [--format binary] [--repeat N]
    compression-cache trace-replay t.btrace --workload compare
                             [--digest | --json] [--no-mmap]
    compression-cache trace-analyze t.trace [--frames 64,256]

``--scale 1.0`` reproduces the paper's configuration; the defaults trade
fidelity for wall-clock time while keeping every memory-pressure regime
intact.  Sweep-shaped experiments decompose into independent points, so
``--jobs $(nproc)`` fans them across worker processes with byte-identical
output, and ``--resume`` checkpoints completed points to JSONL so an
interrupted sweep picks up where it left off (see docs/sweep.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional

from .compression import available as available_compressors
from .experiments import (
    TABLE1_ORDER, build_cell, experiment_names, render_figure1, run_cell,
    run_pair,
)
from .mem.page import DEFAULT_PAGE_SIZE, mbytes
from .sim.engine import SimulationEngine
from .sim.machine import MIN_FRAMES, Machine, SpecError
from .workloads import catalog


class UsageError(Exception):
    """A command line that cannot be run: :func:`main` prints the
    message to stderr and exits 2."""


def _workload_spec(args: argparse.Namespace) -> Dict[str, Any]:
    """The catalogue spec ``--workload`` names, at ``--scale``."""
    if args.workload not in catalog.CATALOG:
        known = ", ".join(sorted(catalog.CATALOG))
        raise UsageError(
            f"unknown workload {args.workload!r}; known: {known}"
        )
    return catalog.spec(args.workload, args.scale)


def _check_sizes(args: argparse.Namespace, workload: Dict[str, Any],
                 memory: Optional[int] = None) -> None:
    """Refuse a ``--scale`` (or ``--memory-mb``) that rounds the
    workload's sizes, or a machine's ``memory``, below what they need to
    build: a usage error, before anything runs."""
    try:
        catalog.from_spec(workload)
    except ValueError as exc:
        raise UsageError(
            f"{args.command}: --scale {args.scale:g} is too small: {exc}")
    if memory is not None and memory < MIN_FRAMES * DEFAULT_PAGE_SIZE:
        raise UsageError(
            f"{args.command}: --scale {args.scale:g} is too small: "
            f"{memory} bytes of memory, under {MIN_FRAMES} pages")


def _trace_is_binary(path: str) -> bool:
    """Sniff the 4-byte magic; falls back to text on any read error."""
    from .workloads import btrace

    try:
        with open(path, "rb") as handle:
            return handle.read(len(btrace.MAGIC)) == btrace.MAGIC
    except OSError:
        return False


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one named workload, optionally under a fault plan."""
    import json

    from .sim.engine import run_workload

    spec = _workload_spec(args)
    plan = None
    if args.faults:
        from .faults.plan import FaultPlan, FaultPlanError

        try:
            plan = FaultPlan.from_json(args.faults)
        except (OSError, FaultPlanError) as exc:
            raise UsageError(
                f"run: cannot load fault plan {args.faults!r}: {exc}"
            )
    if args.kill and args.store != "lfs":
        raise UsageError("run: --kill requires --store lfs")
    memory = mbytes(args.memory_mb * args.scale)
    _check_sizes(args, spec, memory)
    config = {
        "memory_bytes": memory,
        "compressor": args.compressor,
        "tiers": args.tiers or None,
        "store": args.store,
        "log_store": {"sync_appends": args.store_sync,
                      "kill": args.kill or None},
        "control": {} if args.control else None,
    }
    try:
        machine, workload = build_cell(
            {"config": config, "workload": spec},
            fault_plan=plan, paranoid=args.paranoid,
        )
    except SpecError as exc:
        flag, text = {"tiers": ("--tiers", args.tiers),
                      "log_store": ("--kill", args.kill)}[exc.key]
        raise UsageError(f"run: bad {flag} spec {text!r}: {exc.reason}")
    result = run_workload(machine, workload.references(), drain=args.drain)
    if args.digest:
        print(result.digest())
        return 0
    if args.json:
        payload = result.as_dict()
        if machine.explicit_tiers and machine.telemetry is not None:
            payload["tier_report"] = _tier_report(machine)
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(result.summary())
    if result.fault_counters is not None:
        for name, value in result.fault_counters.items():
            print(f"  {name}: {value}")
    return 0


def _tier_report(machine: Machine) -> dict:
    """Per-tier occupancy and windowed hit rates for ``run --json``.

    Assembled at the CLI layer — never part of ``RunResult.as_dict()``
    — so ``--digest`` output and every pinned golden digest stay
    byte-identical whether or not a report is printed.
    """
    telemetry = machine.telemetry
    telemetry.window.advance(machine.ledger.now)
    tiers = []
    for tier in machine.chain.tiers:
        cap = tier.cache.max_frames
        frames = tier.cache.nframes
        tiers.append({
            "name": tier.name,
            "frames": frames,
            "max_frames": cap,
            "occupancy": frames / cap if cap else None,
            "windowed_hit_rate": telemetry.tier_hit_rate(tier.name),
        })
    return {
        "window_seconds": telemetry.window.span_seconds,
        "windowed_miss_fraction": telemetry.miss_fraction(),
        "tiers": tiers,
    }


def _cmd_figure1(_args: argparse.Namespace) -> int:
    print(render_figure1())
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    return _run_experiment(args, "figure3", {"mode": args.mode})


def _cmd_table1(args: argparse.Namespace) -> int:
    names = None
    if args.rows:
        names = [name.strip() for name in args.rows.split(",")]
        unknown = set(names) - set(TABLE1_ORDER)
        if unknown:
            raise UsageError(f"unknown rows: {sorted(unknown)}\n"
                             f"known: {', '.join(TABLE1_ORDER)}")
    return _run_experiment(args, "table1", {"names": names})


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _run_experiment(args, args.experiment,
                           {"mode": args.mode, "seed": args.seed})


def _run_experiment(args: argparse.Namespace, name: str,
                    options: Dict[str, Any]) -> int:
    """Run one ``EXPERIMENTS`` row as a sweep and print its tables: the
    one path of ``figure3``, ``table1`` and ``sweep``.

    ``sweep`` also prints progress, every completed point as a JSON line
    and a summary line — or, with ``--digest``, only a stable
    fingerprint of the results (CI compares digests across ``--jobs``
    values to prove parallel == serial).  A point that still fails
    after its retries is reported as ``FAILED key: error``, exit 1.
    """
    import json

    from .experiments import EXPERIMENTS
    from .sweep import run_sweep

    listing = args.command == "sweep"
    experiment = EXPERIMENTS[name]
    points = experiment.points(args.scale, options)
    extra: Dict[str, Any] = {}
    if listing:
        extra = {"retries": args.retries,
                 "progress": None if args.digest else print}
    sweep = run_sweep(points, jobs=args.jobs, checkpoint=args.resume,
                      timeout=args.timeout, **extra)
    if sweep.failures:
        for key, error in sweep.failures.items():
            print(f"FAILED {key}: {error}", file=sys.stderr)
        return 1
    if listing and args.digest:
        print(sweep.digest())
        return 0
    if listing:
        for key, record in sweep.results.items():
            print(f"{key}: {json.dumps(record, sort_keys=True)}")
    print(experiment.render(sweep.cells(points)))
    if listing:
        print(sweep.summary())
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Run a short thrashing burst and dump the machine state
    (the Figure 2 diagram, memory split, device counters)."""
    from .sim.inspect import render_machine

    memory = mbytes(6 * args.scale)
    workload = catalog.spec("thrasher", args.scale, cycles=2,
                            working_set_bytes=int(memory * 2.5))
    _check_sizes(args, workload, memory)
    machine, _ = run_cell({"config": {"memory_bytes": memory},
                           "workload": workload})
    print(render_machine(machine))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    """A quick end-to-end demonstration on the thrasher."""
    memory = mbytes(6 * args.scale)
    working_set = int(memory * 2.5)
    workload = catalog.spec("thrasher", args.scale,
                            working_set_bytes=working_set)
    _check_sizes(args, workload, memory)
    print(
        f"thrasher over {working_set // 1024} KBytes on "
        f"{memory // 1024} KBytes of memory:"
    )
    results = run_pair({"config": {"memory_bytes": memory},
                        "workload": workload})
    for label, result in zip(("unmodified system", "compression cache"),
                             results):
        print(f"  {label:18s}: {result.summary()}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    """Kernel-throughput and sim-rate benchmarks (BENCH_*.json), or
    ``perf pairs``: alternated parent/change runs of the e2e benchmark."""
    from pathlib import Path

    if args.perf_command == "pairs":
        from .pairs import main as pairs_main

        return pairs_main(args.parent, args.change, args.workload,
                          args.pairs, args.seed, args.quick)
    from .perf import run_harness

    return run_harness(
        Path(args.out_dir),
        quick=args.quick,
        check=Path(args.check) if args.check else None,
        skip_sim=args.skip_sim,
        profile=args.profile,
        profile_out=Path(args.out) if args.out else None,
    )


def _service_config_from_args(args: argparse.Namespace):
    """Build a ServiceConfig from the shared serve/serve-bench options."""
    from .mem.page import DEFAULT_PAGE_SIZE
    from .service.config import ServiceConfig, tenants_from_spec

    return ServiceConfig(
        shards=args.shards,
        vslots=args.vslots,
        tenants=tenants_from_spec(args.tenants),
        tier_bytes=tuple(
            int(float(mb) * (1 << 20)) for mb in args.tier_mb.split(",")
        ),
        compressor=args.compressor,
        page_size=DEFAULT_PAGE_SIZE,
        batch_ops=args.batch_ops,
        max_pending=args.max_pending,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compressed-cache server over TCP until shut down."""
    import asyncio

    from .service.server import CacheService, serve_tcp

    try:
        config = _service_config_from_args(args)
    except ValueError as exc:
        raise UsageError(f"serve: {exc}")

    async def _run() -> int:
        service = CacheService(config)
        await service.start()
        try:
            server, stopped = await serve_tcp(
                service, host=args.host, port=args.port,
                idle_timeout=args.idle_timeout or None,
            )
            host, port = server.sockets[0].getsockname()[:2]
            print(f"serving {config.shards} shard(s), "
                  f"{config.vslots} vslots, "
                  f"compressor {config.compressor} on {host}:{port}")
            print("tenants: " + ", ".join(
                t.name + (f" (quota {t.quota_bytes >> 20} MB)"
                          if t.quota_bytes else "")
                for t in config.tenants
            ))
            async with server:
                await stopped.wait()
            print("shutdown requested; draining")
        finally:
            await service.stop()
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    """Zipf traffic replay against the service; BENCH_service.json."""
    import json
    from pathlib import Path

    from .perf import check_baseline
    from .service.bench import bench_service

    try:
        shard_counts = [int(s) for s in args.shards.split(",")]
    except ValueError:
        raise UsageError(f"serve-bench: bad --shards list {args.shards!r}")
    try:
        bench = bench_service(
            shard_counts=shard_counts,
            ops=args.ops,
            seed=args.seed,
            checkpoint=args.resume,
            progress=print,
            compressor=args.compressor,
            clients=args.clients,
            batch_ops=args.batch_ops,
            zipf_s=args.zipf,
            diurnal_amplitude=args.diurnal,
            pace_ops_s=args.pace or None,
        )
    except (AssertionError, RuntimeError) as exc:
        print(f"serve-bench: {exc}", file=sys.stderr)
        return 1
    for shards in shard_counts:
        run = bench["runs"][str(shards)]
        lat = run["latency_us"]
        growth = run.get("shard_peak_rss_growth_mb")  # old checkpoints
        print(f"  {shards} shard(s): {run['ops_per_second']:,.0f} ops/s, "
              f"p50 {lat['p50']:,} us, p99 {lat['p99']:,} us, "
              f"p999 {lat['p999']:,} us, "
              f"mean batch {run['mean_batch_ops']:.1f} ops, "
              f"shard memory "
              f"{'n/a' if growth is None else f'+{growth:.1f} MB'}")
    first = bench["runs"][str(shard_counts[0])]
    if "hit_rate_curve" in first:  # old checkpoints have none
        curve = first["hit_rate_curve"]
        print(f"hit rate {first['hit_rate']:.4f}; the stream's LRU curve: "
              f"{curve['at_capacity']:.4f} at {curve['capacity_pages']} "
              f"raw pages a slot, {curve['infinite']:.4f} unbounded")
    for slots, run in bench["adversarial"]["runs"].items():
        growth = run["shard_peak_rss_growth_mb"]
        front = run["front_end_peak_rss_growth_mb"]
        print(f"adversarial stream, {slots} vslots: shard memory "
              f"{'n/a' if growth is None else f'+{growth:.1f} MB'}, "
              f"front end {'n/a' if front is None else f'+{front:.1f} MB'}")
    print(f"ledger digest (all shard counts): "
          f"{bench['determinism']['ledger_digest']}")
    scaling = bench["scaling"]
    print(f"scaling: {scaling['best_shards']} shards reach "
          f"{scaling['speedup']:.2f}x of 1 shard "
          f"({bench['cpu_count']} CPU(s) visible)")
    out_path = Path(args.out)
    out_path.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out_path}")
    if args.check:
        return check_baseline({"service": bench}, Path(args.check))
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    """Record a named workload's reference trace to a file."""
    from .sim.trace import Trace
    from .workloads import btrace

    spec = _workload_spec(args)
    _check_sizes(args, spec)
    workload = catalog.from_spec(spec)
    fmt = args.format
    if fmt == "auto":
        fmt = ("binary" if args.out.endswith((".bt", ".btrace"))
               else "text")
    if args.repeat > 1 and fmt != "binary":
        raise UsageError("trace-record: --repeat requires --format binary")
    max_events = args.max_events or None
    try:
        if fmt == "binary":
            count, pages, writes = btrace.dump_repeated(
                args.out, workload.references(), args.repeat, max_events
            )
        else:
            trace = Trace.record(workload.references(),
                                 max_events=max_events)
            trace.dump(args.out)
            count = len(trace)
            pages = trace.touched_pages()
            writes = trace.write_fraction
    except OSError as exc:
        raise UsageError(f"trace-record: cannot write {args.out!r}: {exc}")
    print(f"recorded {count} references "
          f"({pages} pages, {writes:.0%} writes, {fmt}) to {args.out}")
    return 0


def _own_peak_rss_kb() -> int:
    """Peak resident set of this process since it was exec'd.

    ``ru_maxrss`` is carried across ``exec``: launched from a 240 MB
    parent, a 61 MB replay reported 241.8 MB — the perf harness's own
    heap, not the replay's.  ``VmHWM`` belongs to the address space and
    starts again with it; ``ru_maxrss`` is the answer where there is no
    ``/proc``.
    """
    import resource

    from .counters import proc_status_kb

    peak = proc_status_kb("VmHWM")
    if peak is not None:
        return peak
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    """Replay a recorded trace through a fresh machine.

    The workload that recorded the trace must be named again (with the
    same ``--scale``) so the address space and its page contents can be
    rebuilt; the trace then drives the engine instead of the workload's
    own reference generator.  Binary traces stream through the
    mmap-backed chunk reader; text traces go through the classic
    per-reference path.
    """
    import json

    from .sim.trace import Trace, TraceFormatError
    from .workloads import btrace

    memory = mbytes(args.memory_mb * args.scale)
    workload = _workload_spec(args)
    _check_sizes(args, workload, memory)
    machine, _ = build_cell(
        {"config": {"memory_bytes": memory}, "workload": workload})
    engine = SimulationEngine(machine)
    max_references = args.max_events or None
    try:
        if _trace_is_binary(args.trace):
            with btrace.BinaryTraceReader(
                args.trace, use_mmap=not args.no_mmap
            ) as reader:
                total = len(reader)
                result = engine.run_trace(
                    reader, drain=args.drain,
                    max_references=max_references,
                )
        else:
            trace = Trace.load(args.trace)
            total = len(trace)
            result = engine.run(
                iter(trace), drain=args.drain,
                max_references=max_references,
            )
    except OSError as exc:
        raise UsageError(f"trace-replay: cannot read {args.trace!r}: {exc}")
    except TraceFormatError as exc:
        raise UsageError(
            f"trace-replay: {args.trace!r} is not a valid trace: {exc}"
        )
    if args.digest:
        print(result.digest())
        return 0
    if args.json:
        print(json.dumps(result.as_dict(), sort_keys=True, indent=2))
        return 0
    replayed = (min(total, max_references) if max_references is not None
                else total)
    print(f"replayed {replayed} references: {result.summary()}")
    print(f"peak RSS {_own_peak_rss_kb() / 1024:.1f} MB")
    return 0


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    """LRU miss-ratio analysis of a recorded trace."""
    from .model.locality import MissRatioCurve
    from .sim.trace import Trace, TraceFormatError
    from .workloads import btrace

    try:
        if _trace_is_binary(args.trace):
            with btrace.BinaryTraceReader(args.trace) as reader:
                refs = list(reader)
            trace = Trace(refs)
        else:
            trace = Trace.load(args.trace)
    except OSError as exc:
        raise UsageError(
            f"trace-analyze: cannot read {args.trace!r}: {exc}\n"
            "usage: compression-cache trace-analyze TRACE "
            "[--frames 64,256] (record one with trace-record)"
        )
    except TraceFormatError as exc:
        raise UsageError(
            f"trace-analyze: {args.trace!r} is not a valid trace: {exc}\n"
            "the file may be truncated or not produced by "
            "trace-record; re-record it"
        )
    if len(trace) == 0:
        # A zero-record trace is a valid (if vacuous) recording — e.g.
        # trace-record with --max-events 0 on an empty stream — not a
        # format error, so report it plainly and succeed.
        print(f"empty trace: {args.trace} contains 0 references")
        return 0
    curve = MissRatioCurve.from_references(
        [ref.page_id for ref in trace]
    )
    print(f"{len(trace)} references, {trace.touched_pages()} pages, "
          f"{trace.write_fraction:.0%} writes")
    print(f"working-set knee: ~{curve.knee()} frames")
    if args.frames:
        sizes = [int(s) for s in args.frames.split(",")]
    else:
        knee = max(curve.knee(), 8)
        sizes = sorted({knee // 4, knee // 2, knee, knee * 2})
    for frames in sizes:
        print(f"  {frames:6d} frames: {curve.faults_at(frames):8d} faults "
              f"({curve.miss_ratio_at(frames):6.1%})")
    return 0


def _bounded(convert: Callable[[str], Any], low: float,
             inclusive: bool = True) -> Callable[[str], Any]:
    """An argparse ``type``: ``convert`` the text, then refuse a value
    below ``low`` (or equal to it, unless ``inclusive``) as a usage
    error."""
    def parse(text: str) -> Any:
        value = convert(text)
        if not (value >= low if inclusive else value > low):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if inclusive else '>'} {low:g}: {text!r}")
        return value

    parse.__name__ = convert.__name__  # "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="compression-cache",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A run on no memory, or on none of a workload, is no run at all.
    positive = _bounded(float, 0, inclusive=False)

    sub.add_parser("figure1", help="analytic speedup surfaces")

    run = sub.add_parser(
        "run", help="run one workload, optionally under a fault plan"
    )
    run.add_argument("--workload", required=True,
                     help=f"one of: {', '.join(sorted(catalog.CATALOG))}")
    run.add_argument("--scale", type=positive, default=0.05)
    run.add_argument("--memory-mb", type=positive, default=6.0,
                     help="user memory in MBytes before --scale is applied")
    run.add_argument("--faults", default="", metavar="PLAN.json",
                     help="fault-injection plan (see docs/faults.md)")
    run.add_argument("--drain", action="store_true",
                     help="evict and flush everything at the end")
    run.add_argument("--paranoid", action="store_true",
                     help="verify every decompression round trip")
    run.add_argument("--compressor", default="lzrw1",
                     choices=available_compressors(),
                     metavar="KERNEL",
                     help="compression kernel for the default cache "
                          f"(one of: {', '.join(available_compressors())}; "
                          "see docs/kernels.md)")
    run.add_argument("--tiers", default="", metavar="SPEC",
                     help="compressed-tier chain, warmest first: "
                          "comma-separated compressor[:max_frames"
                          "[:compress_scale]] items (0 frames = uncapped), "
                          "or the 'two-tier' preset; see docs/tiers.md")
    run.add_argument("--store", choices=("frag", "lfs"), default="frag",
                     help="compressed-page backing store: the paper's "
                          "fragment store or the crash-consistent "
                          "log-structured store (see docs/lfs.md)")
    run.add_argument("--store-sync", action="store_true",
                     help="lfs only: make every append durable on "
                          "acknowledge (one device write per operation)")
    run.add_argument("--kill", default="", metavar="SITE:N[:FRAC]",
                     help="lfs only: simulate a crash at the N-th "
                          "consult of SITE (append, clean, checkpoint), "
                          "leaving FRAC of the in-flight write; the run "
                          "recovers and continues (see docs/faults.md)")
    run.add_argument("--control", action="store_true",
                     help="enable the closed-loop control plane "
                          "(hotness-aware autotuning of tier geometry "
                          "and trading biases; see docs/control.md)")
    run.add_argument("--digest", action="store_true",
                     help="print only a sha256 of the full result (the "
                          "chaos determinism check)")
    run.add_argument("--json", action="store_true",
                     help="print the full result as JSON")

    def add_sweep_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--jobs", type=_bounded(int, 1), default=1,
            help="worker processes (1 = serial; output is identical)")
        command.add_argument(
            "--resume", default=None, metavar="PATH.jsonl",
            help="JSONL checkpoint: skip completed points, append new")
        # 0 would disarm the per-point timer rather than set a limit.
        command.add_argument(
            "--timeout", type=_bounded(float, 0, inclusive=False),
            default=None, metavar="SECONDS",
            help="per-point wall-clock limit")

    fig3 = sub.add_parser("figure3", help="thrasher sweep (both panels)")
    fig3.add_argument("--scale", type=positive, default=0.2)
    fig3.add_argument("--mode", choices=("rw", "ro", "both"),
                      default="both")
    add_sweep_options(fig3)

    tbl = sub.add_parser("table1", help="application speedups")
    tbl.add_argument("--scale", type=positive, default=0.12)
    tbl.add_argument("--rows", default="",
                     help="comma-separated subset of applications")
    add_sweep_options(tbl)

    sweep = sub.add_parser(
        "sweep", help="run an experiment as a parallel, resumable sweep"
    )
    sweep.add_argument("--experiment",
                       choices=experiment_names(),
                       default="figure3")
    sweep.add_argument("--scale", type=positive, default=0.2)
    sweep.add_argument("--mode", choices=("rw", "ro", "both"),
                       default="both", help="figure3 only")
    sweep.add_argument("--seed", type=int, default=0,
                       help="content-generation seed (figure3 only)")
    sweep.add_argument("--retries", type=_bounded(int, 0), default=2,
                       help="extra attempts for a crashed/failed point")
    sweep.add_argument("--digest", action="store_true",
                       help="print only the aggregated-results digest "
                            "(CI parallel==serial check)")
    add_sweep_options(sweep)

    demo = sub.add_parser("demo", help="quick thrasher demonstration")
    demo.add_argument("--scale", type=positive, default=0.2)

    inspect = sub.add_parser(
        "inspect", help="dump machine state after a thrashing burst"
    )
    inspect.add_argument("--scale", type=positive, default=0.1)

    perf = sub.add_parser(
        "perf", help="compressor MB/s and sim pages/s benchmarks"
    )
    perf.add_argument("--quick", action="store_true",
                      help="smaller corpus and fewer reps (CI smoke)")
    perf.add_argument("--skip-sim", action="store_true",
                      help="kernel throughput only")
    perf.add_argument("--out-dir", default=".",
                      help="directory for BENCH_*.json")
    perf.add_argument("--check", default="",
                      help="baseline JSON; exit 1 on speedup regression")
    perf.add_argument("--profile", nargs="?", const=25, default=None,
                      type=int, metavar="N",
                      help="cProfile the simulator and write a report "
                           "(top N functions, default 25)")
    perf.add_argument("--out", default="", metavar="PATH",
                      help="where --profile writes its report "
                           "(default: OUT_DIR/BENCH_profile.txt)")
    perf_sub = perf.add_subparsers(dest="perf_command")
    pairs = perf_sub.add_parser(
        "pairs", help="alternated parent/change runs of "
                      "benchmarks/e2e/run.py, with medians, quartiles, "
                      "wins and exact-count equality")
    pairs.add_argument("parent", help="git revision or checkout directory")
    pairs.add_argument("change", help="git revision or checkout directory")
    pairs.add_argument("--workload", required=True,
                       help="a workload BENCHMARK.json declares")
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--seed", type=int, default=1,
                       help="seed of pair 0; pair i runs seed + i")
    pairs.add_argument("--quick", action="store_true",
                       help="run.py --quick (sizes tiny, never comparable)")

    def add_service_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--vslots", type=int, default=64,
            help="virtual slots (fixed across shard counts; "
                 "see docs/service.md)")
        command.add_argument(
            "--compressor", default="adaptive",
            choices=available_compressors(), metavar="KERNEL",
            help="per-slot compression kernel")
        command.add_argument(
            "--batch-ops", type=int, default=32,
            help="max operations coalesced per shard dispatch")

    serve = sub.add_parser(
        "serve", help="run the compressed-cache server over TCP"
    )
    serve.add_argument("--shards", type=int, default=1,
                       help="shard worker processes")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks a free port (printed at startup)")
    serve.add_argument("--tenants", default="default",
                       help="name[=quota_mb],... (see docs/service.md)")
    serve.add_argument("--tier-mb", default="8",
                       help="comma-separated tier capacities in MBytes, "
                            "warmest first")
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="per-shard queued+in-flight bound "
                            "(backpressure beyond it)")
    serve.add_argument("--idle-timeout", type=float, default=0.0,
                       metavar="SECONDS",
                       help="close connections idle for this long "
                            "between frames (0 = never)")
    add_service_options(serve)

    sbench = sub.add_parser(
        "serve-bench",
        help="Zipf traffic bench; writes BENCH_service.json",
    )
    sbench.add_argument("--shards", default="1,2,4",
                        help="comma-separated shard counts to compare")
    sbench.add_argument("--ops", type=int, default=20000)
    sbench.add_argument("--seed", type=int, default=1234)
    sbench.add_argument("--clients", type=int, default=8,
                        help="concurrent replay clients "
                             "(vslot-partitioned)")
    sbench.add_argument("--zipf", type=float, default=1.1,
                        help="key-popularity skew (0 = uniform)")
    sbench.add_argument("--pace", type=float, default=0.0,
                        help="offered load in ops/s (0 = flat out)")
    sbench.add_argument("--diurnal", type=float, default=0.0,
                        help="diurnal ramp amplitude in [0,1) "
                             "(shapes --pace)")
    sbench.add_argument("--out", default="BENCH_service.json")
    sbench.add_argument("--resume", default=None, metavar="PATH.jsonl",
                        help="JSONL checkpoint: completed shard counts "
                             "are not re-measured")
    sbench.add_argument("--check", default="",
                        help="baseline JSON; exit 1 on digest mismatch "
                             "or throughput regression")
    add_service_options(sbench)

    record = sub.add_parser(
        "trace-record", help="record a workload's reference trace"
    )
    record.add_argument("--workload", required=True)
    record.add_argument("--out", required=True)
    record.add_argument("--scale", type=positive, default=0.05)
    record.add_argument("--max-events", type=int, default=0)
    record.add_argument("--format", choices=("auto", "text", "binary"),
                        default="auto",
                        help="'auto' picks binary for .bt/.btrace "
                             "extensions (see docs/traces.md)")
    record.add_argument("--repeat", type=int, default=1,
                        help="write the recorded stream N times "
                             "(binary only; builds long replay traces)")

    replay = sub.add_parser(
        "trace-replay",
        help="replay a recorded trace through a fresh machine",
    )
    replay.add_argument("trace")
    replay.add_argument("--workload", required=True,
                        help="workload that recorded the trace (rebuilds "
                             "the address space; use the same --scale)")
    replay.add_argument("--scale", type=positive, default=0.05)
    replay.add_argument("--memory-mb", type=positive, default=6.0,
                        help="user memory in MBytes before --scale")
    replay.add_argument("--max-events", type=int, default=0)
    replay.add_argument("--drain", action="store_true")
    replay.add_argument("--no-mmap", action="store_true",
                        help="read the whole binary trace into memory "
                             "instead of memory-mapping it")
    replay.add_argument("--digest", action="store_true",
                        help="print only a sha256 of the full result")
    replay.add_argument("--json", action="store_true",
                        help="print the full result as JSON")

    analyze = sub.add_parser(
        "trace-analyze", help="LRU miss-ratio analysis of a trace"
    )
    analyze.add_argument("trace")
    analyze.add_argument("--frames", default="",
                         help="comma-separated memory sizes to evaluate")
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "figure1": _cmd_figure1,
    "figure3": _cmd_figure3,
    "table1": _cmd_table1,
    "sweep": _cmd_sweep,
    "demo": _cmd_demo,
    "inspect": _cmd_inspect,
    "perf": _cmd_perf,
    "serve": _cmd_serve,
    "serve-bench": _cmd_serve_bench,
    "trace-record": _cmd_trace_record,
    "trace-replay": _cmd_trace_replay,
    "trace-analyze": _cmd_trace_analyze,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point.

    An interrupted sweep (Ctrl-C) exits with the conventional SIGINT
    code 130 after printing how to resume: completed points were
    checkpointed the moment they finished, so a rerun with the same
    ``--resume`` path continues instead of recomputing.
    """
    from .sweep import SweepInterrupted

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except SweepInterrupted as exc:
        done = len(exc.result.results)
        if exc.checkpoint:
            print(f"interrupted: {done} completed point(s) saved; "
                  f"rerun with --resume {exc.checkpoint} to continue",
                  file=sys.stderr)
        else:
            print("interrupted: no checkpoint was in use; rerun with "
                  "--resume PATH.jsonl to make interruption resumable",
                  file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

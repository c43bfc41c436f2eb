"""Parallel experiment sweep runner with checkpoint/resume.

The paper's results (Figure 3, Table 1, the ablations) are sweeps of
*independent* simulations over memory scales and workloads.  This module
decomposes any such sweep into :class:`SweepPoint` specs and executes
them either serially or across a ``ProcessPoolExecutor``, with:

* **per-point timeouts** — enforced inside the worker with ``SIGALRM``
  (where available), so a wedged point cannot stall the sweep;
* **bounded retry** — a point whose worker raises (or whose process dies,
  breaking the pool) is resubmitted up to ``retries`` extra times;
* **append-only JSONL checkpointing** — every completed point is written
  (and flushed) to a checkpoint file the moment it finishes, so an
  interrupted sweep resumes without recomputing anything;
* **deterministic aggregation** — results are keyed and sorted by the
  point's stable key, so parallel output is byte-identical to serial.

Determinism contract: a point's ``spec`` must *fully* describe its
simulation — workload parameters, machine configuration, and the rng
seed used for content generation.  Runners must be pure functions of the
spec (module-level, importable by path), never closures over process
state.  Every workload and content generator in this repository is
seeded from its arguments, so this holds by construction.

See ``docs/sweep.md`` for the design and the checkpoint format.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: Checkpoint schema version, written on every line.
CHECKPOINT_VERSION = 1

#: How many times a broken process pool is rebuilt before giving up.
_MAX_POOL_REBUILDS = 3


class SweepError(Exception):
    """A sweep could not be completed."""


class SweepInterrupted(SweepError):
    """The user interrupted the sweep (Ctrl-C / SIGINT).

    Raised by :func:`run_sweep` *after* the checkpoint writer has been
    flushed and closed, so every point completed before the interrupt is
    durably recorded and a rerun with the same checkpoint resumes
    without recomputing any of them.  Carries the partial result.
    """

    def __init__(self, result: "SweepResult",
                 checkpoint: Optional[Union[str, Path]]):
        self.result = result
        self.checkpoint = checkpoint
        done = len(result.results)
        where = (f"; {done} completed point(s) checkpointed to "
                 f"{checkpoint}" if checkpoint else
                 " (no checkpoint: completed points are lost; "
                 "use --resume)")
        super().__init__(f"sweep interrupted{where}")


class PointTimeout(Exception):
    """A point exceeded its per-point timeout inside the worker."""


def canonical_spec(spec: Mapping[str, Any]) -> str:
    """The canonical JSON encoding of a spec (sorted keys, no spaces).

    Used both for key derivation and for checkpoint-compatibility
    checks, so it must be stable across processes and Python versions.
    """
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def spec_digest(spec: Mapping[str, Any]) -> str:
    """A short stable fingerprint of a spec."""
    return hashlib.blake2b(
        canonical_spec(spec).encode("utf-8"), digest_size=8
    ).hexdigest()


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation in a sweep.

    Attributes:
        runner: import path of the runner as ``"module:function"``.
            The function takes the spec dict and returns a
            JSON-serializable result dict.
        spec: JSON-serializable parameters fully describing the point
            (workload, scale, mode, rng seed, machine configuration).
        key: stable unique identity; checkpoint resume and result
            aggregation are keyed on it.  Defaults to
            ``runner/<spec digest>``; point builders usually pass a
            human-readable key instead.
    """

    runner: str
    spec: Mapping[str, Any]
    key: str = ""

    def __post_init__(self) -> None:
        if ":" not in self.runner:
            raise ValueError(
                f"runner must be 'module:function', got {self.runner!r}"
            )
        if not self.key:
            object.__setattr__(
                self, "key", f"{self.runner}/{spec_digest(self.spec)}"
            )

    def resolve(self) -> Callable[[Mapping[str, Any]], Dict[str, Any]]:
        """Import and return the runner callable."""
        return _resolve_runner(self.runner)


def _resolve_runner(path: str) -> Callable[[Mapping[str, Any]], Dict[str, Any]]:
    module_name, _, func_name = path.partition(":")
    module = importlib.import_module(module_name)
    func = getattr(module, func_name, None)
    if not callable(func):
        raise SweepError(f"runner {path!r} does not name a callable")
    return func


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------


def _execute_point(
    runner_path: str,
    spec: Mapping[str, Any],
    timeout: Optional[float],
) -> "Tuple[Dict[str, Any], float]":
    """Run one point; returns ``(result, elapsed_seconds)``.

    Enforces the per-point timeout via ``SIGALRM``.  Module-level
    (picklable) so it can be submitted to a process pool; also used
    directly by the serial path.  ``SIGALRM`` is per-process, and pool
    workers execute one point at a time, so arming it here is safe;
    platforms without it (Windows) simply run without enforcement.
    """
    runner = _resolve_runner(runner_path)
    start = time.perf_counter()
    use_alarm = timeout is not None and hasattr(signal, "SIGALRM")
    if not use_alarm:
        return runner(spec), time.perf_counter() - start

    def _on_alarm(signum, frame):
        raise PointTimeout(f"point exceeded {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    # setitimer supports fractional seconds, unlike alarm().
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return runner(spec), time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _worker_initializer() -> None:
    """Keep long-lived pool workers lean.

    Workers process many points; each point may populate the content
    generators' memo caches with pages for a different seed.  Start each
    worker from a clean slate so the memo reflects only its own points.
    """
    from .workloads import contentgen

    contentgen.clear_caches()


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Read a JSONL checkpoint into ``key -> record``.

    Tolerates a truncated final line (the run was interrupted mid-write);
    any other malformed line raises :class:`SweepError`.  Later records
    win when a key repeats (e.g. a point re-run after a spec-less retry).
    """
    records: Dict[str, Dict[str, Any]] = {}
    path = Path(path)
    if not path.exists():
        return records
    with open(path) as handle:
        lines = handle.readlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break  # torn final write from an interrupted run
            raise SweepError(
                f"{path}: malformed checkpoint line {lineno}"
            ) from None
        for required in ("key", "runner", "spec", "result"):
            if required not in record:
                raise SweepError(
                    f"{path}: checkpoint line {lineno} missing {required!r}"
                )
        records[record["key"]] = record
    return records


class _CheckpointWriter:
    """Append-only JSONL writer, flushed per record."""

    def __init__(self, path: Optional[Union[str, Path]]):
        self._handle = None
        if path is not None:
            parent = Path(path).parent
            if parent and not parent.exists():
                parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(path, "a")

    def write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            return
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# The sweep itself
# ----------------------------------------------------------------------


#: Host-timing fields of ``kernels`` cells: not in :meth:`SweepResult.digest`.
WALL_CLOCK_FIELDS = frozenset({"host_seconds", "refs_per_second"})


@dataclass
class SweepResult:
    """Aggregated outcome of :func:`run_sweep`."""

    #: key -> result dict, in sorted-key order (deterministic).
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: key -> final error string for points that exhausted retries.
    failures: Dict[str, str] = field(default_factory=dict)
    computed: int = 0
    resumed: int = 0
    retried: int = 0
    #: True when the sweep was cut short by SIGINT (see SweepInterrupted).
    interrupted: bool = False

    def __getitem__(self, key: str) -> Dict[str, Any]:
        return self.results[key]

    def in_order(self, points: Sequence[SweepPoint]) -> List[Dict[str, Any]]:
        """Results in the given points' order (raises on a failed point)."""
        missing = [p.key for p in points if p.key not in self.results]
        if missing:
            raise SweepError(
                f"sweep incomplete; missing {len(missing)} point(s): "
                f"{missing[:3]}..."
                if len(missing) > 3
                else f"sweep incomplete; missing points: {missing}"
            )
        return [self.results[p.key] for p in points]

    def cells(self, points: Sequence[SweepPoint]) -> Dict[str, Dict[str, Any]]:
        """Results by key, in the given points' order (raises on a
        failed point): what an experiment's renderer reads."""
        return dict(zip((p.key for p in points), self.in_order(points)))

    def digest(self) -> str:
        """A stable fingerprint of the aggregated results.

        Parallel and serial sweeps over the same points must produce the
        same digest; CI's ``--jobs 2`` smoke compares it against a
        serial run's.  :data:`WALL_CLOCK_FIELDS` are not part of it.
        """
        timeless = {key: {name: value for name, value in cell.items()
                          if name not in WALL_CLOCK_FIELDS}
                    for key, cell in self.results.items()}
        blob = json.dumps(timeless, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        """One line for progress reporting."""
        parts = [
            f"{len(self.results)} points",
            f"{self.computed} computed",
            f"{self.resumed} resumed",
        ]
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        if self.interrupted:
            parts.append("INTERRUPTED")
        return ", ".join(parts)


def _check_points(points: Sequence[SweepPoint]) -> None:
    seen: Dict[str, str] = {}
    for point in points:
        spec_json = canonical_spec(point.spec)
        if point.key in seen and seen[point.key] != spec_json:
            raise SweepError(
                f"duplicate point key {point.key!r} with differing specs"
            )
        seen[point.key] = spec_json
        _resolve_runner(point.runner)  # fail fast on a bad import path


def _resume(
    points: Sequence[SweepPoint],
    checkpoint: Optional[Union[str, Path]],
    result: SweepResult,
) -> List[SweepPoint]:
    """Fill ``result`` from the checkpoint; return points still to run."""
    if checkpoint is None:
        return list(points)
    records = load_checkpoint(checkpoint)
    pending: List[SweepPoint] = []
    for point in points:
        record = records.get(point.key)
        if (
            record is not None
            and record["runner"] == point.runner
            and canonical_spec(record["spec"]) == canonical_spec(point.spec)
        ):
            result.results[point.key] = record["result"]
            result.resumed += 1
        else:
            pending.append(point)
    return pending


def _record(point: SweepPoint, outcome: Dict[str, Any],
            elapsed: float) -> Dict[str, Any]:
    return {
        "v": CHECKPOINT_VERSION,
        "key": point.key,
        "runner": point.runner,
        "spec": dict(point.spec),
        "result": outcome,
        "elapsed_s": round(elapsed, 6),
    }


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    checkpoint: Optional[Union[str, Path]] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Execute every point; returns deterministic aggregated results.

    Args:
        points: the sweep, in any order (aggregation sorts by key).
        jobs: worker processes; 1 runs serially in-process.
        checkpoint: JSONL path.  Existing compatible records are resumed
            (their points are not recomputed); every newly completed
            point is appended and flushed immediately.
        timeout: per-point wall-clock limit in seconds (``SIGALRM``
            in the worker; unenforced on platforms without it).
        retries: extra attempts for a point whose worker raised, timed
            out, or died.
        progress: optional callable for one-line progress messages.

    Points that still fail after ``retries`` extra attempts are reported
    in :attr:`SweepResult.failures`; the sweep itself completes, and
    :meth:`SweepResult.in_order` raises if a failed point is required.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0: {retries}")
    _check_points(points)

    result = SweepResult()
    pending = _resume(points, checkpoint, result)
    say = progress if progress is not None else lambda _msg: None
    if result.resumed:
        say(f"resumed {result.resumed} checkpointed point(s), "
            f"{len(pending)} to run")

    writer = _CheckpointWriter(checkpoint)
    try:
        if jobs == 1:
            _run_serial(pending, timeout, retries, result, writer, say)
        else:
            _run_pool(pending, jobs, timeout, retries, result, writer, say)
    except KeyboardInterrupt:
        # Every completed point was written and fsynced the moment it
        # finished, so the only work here is closing the handle and
        # reporting what a rerun will resume.
        result.interrupted = True
    finally:
        writer.close()

    result.results = dict(sorted(result.results.items()))
    result.failures = dict(sorted(result.failures.items()))
    say(result.summary())
    if result.interrupted:
        raise SweepInterrupted(result, checkpoint)
    return result


def _run_serial(
    pending: Sequence[SweepPoint],
    timeout: Optional[float],
    retries: int,
    result: SweepResult,
    writer: _CheckpointWriter,
    say: Callable[[str], None],
) -> None:
    for point in pending:
        for attempt in range(retries + 1):
            try:
                outcome, elapsed = _execute_point(
                    point.runner, point.spec, timeout
                )
            except Exception as exc:  # noqa: BLE001 - retry any failure
                if attempt < retries:
                    result.retried += 1
                    say(f"{point.key}: attempt {attempt + 1} failed "
                        f"({exc}); retrying")
                    continue
                result.failures[point.key] = repr(exc)
                say(f"{point.key}: FAILED after {attempt + 1} attempt(s)")
                break
            result.results[point.key] = outcome
            result.computed += 1
            writer.write(_record(point, outcome, elapsed))
            break


def _run_pool(
    pending: Sequence[SweepPoint],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    result: SweepResult,
    writer: _CheckpointWriter,
    say: Callable[[str], None],
) -> None:
    """Fan pending points across a process pool.

    A worker raising an ordinary exception fails only its own future; a
    worker *dying* (signal, ``os._exit``) breaks the whole pool and
    fails every in-flight future with ``BrokenProcessPool``.  Both paths
    charge one attempt to the affected point(s) and resubmit while
    attempts remain; the pool is rebuilt at most ``_MAX_POOL_REBUILDS``
    times per sweep.
    """
    attempts = {point.key: 0 for point in pending}
    by_key = {point.key: point for point in pending}
    queue: List[SweepPoint] = list(pending)
    rebuilds = 0

    while queue:
        executor = ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_initializer
        )
        try:
            futures = {}
            for point in queue:
                futures[executor.submit(
                    _execute_point, point.runner, point.spec, timeout
                )] = point.key
            queue = []
            broken = False
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done,
                                      return_when=FIRST_COMPLETED)
                for future in done:
                    key = futures[future]
                    point = by_key[key]
                    try:
                        outcome, elapsed = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as exc:  # noqa: BLE001
                        attempts[key] += 1
                        if attempts[key] <= retries:
                            result.retried += 1
                            say(f"{key}: attempt {attempts[key]} failed "
                                f"({exc}); retrying")
                            queue.append(point)
                        else:
                            result.failures[key] = repr(exc)
                            say(f"{key}: FAILED after "
                                f"{attempts[key]} attempt(s)")
                        continue
                    result.results[key] = outcome
                    result.computed += 1
                    writer.write(_record(point, outcome, elapsed))
                if broken:
                    break
            if broken:
                # Everything not completed gets one attempt charged and
                # goes back on the queue (we cannot tell which point
                # killed its worker).
                rebuilds += 1
                if rebuilds > _MAX_POOL_REBUILDS:
                    raise SweepError(
                        f"process pool broke {rebuilds} times; giving up"
                    )
                say(f"worker process died; rebuilding pool "
                    f"({rebuilds}/{_MAX_POOL_REBUILDS})")
                for future, key in futures.items():
                    if key in result.results or key in result.failures:
                        continue
                    if any(p.key == key for p in queue):
                        continue
                    attempts[key] += 1
                    if attempts[key] <= retries:
                        result.retried += 1
                        queue.append(by_key[key])
                    else:
                        result.failures[key] = "worker process died"
        finally:
            executor.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# Self-test runner (used by the test suite's fault injection)
# ----------------------------------------------------------------------


def _selftest_runner(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """A deterministic toy runner with injectable faults.

    Spec fields:
        value: echoed through a cheap deterministic transform.
        sleep_s: busy-wait this long first (timeout tests).
        fail_marker / fail_times: raise ``RuntimeError`` until the
            marker file has ``fail_times`` lines (one appended per call),
            so early attempts fail and a retry succeeds.
        die_marker / die_times: same, but kill the worker process with
            ``os._exit`` — breaking the pool — instead of raising.
        interrupt_marker / interrupt_times: same, but raise
            ``KeyboardInterrupt`` — simulating Ctrl-C mid-sweep, the
            clean-interrupt regression test (no retry: interrupts are
            a user decision, not a fault).
    """
    marker = spec.get("fail_marker")
    if marker:
        calls = _bump_marker(marker)
        if calls <= int(spec.get("fail_times", 1)):
            raise RuntimeError(f"injected failure #{calls}")
    marker = spec.get("interrupt_marker")
    if marker:
        calls = _bump_marker(marker)
        if calls <= int(spec.get("interrupt_times", 1)):
            raise KeyboardInterrupt()
    marker = spec.get("die_marker")
    if marker:
        calls = _bump_marker(marker)
        if calls <= int(spec.get("die_times", 1)):
            os._exit(13)
    sleep_s = float(spec.get("sleep_s", 0.0))
    if sleep_s:
        deadline = time.perf_counter() + sleep_s
        while time.perf_counter() < deadline:
            pass  # busy wait: SIGALRM interrupts sleep() anyway, but
            # a spinning worker is the harder case worth testing.
    value = spec.get("value", 0)
    return {"value": value, "squared": value * value}


def _bump_marker(path: str) -> int:
    """Append one line to ``path``; return the resulting line count.

    Not atomic across processes, but fault-injection tests serialize the
    calls they count, so best-effort is enough.
    """
    with open(path, "a") as handle:
        handle.write("x\n")
    with open(path) as handle:
        return sum(1 for _ in handle)


#: Import path of the self-test runner, for tests and smoke checks.
SELFTEST_RUNNER = "repro.sweep:_selftest_runner"


def selftest_points(
    count: int,
    extra: Optional[Mapping[str, Any]] = None,
) -> List[SweepPoint]:
    """``count`` trivial points for smoke tests and CI checks."""
    extra = dict(extra or {})
    return [
        SweepPoint(
            runner=SELFTEST_RUNNER,
            spec={"value": i, **extra},
            key=f"selftest/{i:04d}",
        )
        for i in range(count)
    ]

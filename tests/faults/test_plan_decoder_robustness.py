"""Foreign JSON into the fault-plan decoder (ROADMAP robustness item c,
plan slice).

``FaultPlan.from_json`` reads a file a user wrote.  Valid plans — the
committed ``experiments/fault_plans`` and one that sets every field —
are truncated at every length, and have values swapped for other JSON
types, for huge and non-finite numbers, keys deleted and unknown keys
added.  The contract: loading returns a plan or raises
:class:`FaultPlanError`; never another exception and never a hang.  A
plan that loads builds its injector and retry policy, and every backoff
it can ask for is a finite number of seconds.
"""

from __future__ import annotations

import copy
import json
import random
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults.degrade import ResilienceCounters
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.faults.retry import RetryPolicy

PLANS = Path(__file__).resolve().parents[2] / "experiments" / "fault_plans"
MUTATIONS_PER_PLAN = 300
#: Far above what one decode takes (well under a millisecond).
SECONDS_PER_DECODE = 1.0

#: Values a field may be swapped for: every JSON type, the edges of the
#: numbers, and what ``json`` reads for ``Infinity`` / ``NaN`` / 1e400.
SWAPS = (
    True, False, None, "0.5", [], {}, [0.5], {"x": 1},
    0, 1, -1, 0.5, 1.5, -0.0, 2 ** 63, 10 ** 400, -(10 ** 400), 1e308,
    float("inf"), float("-inf"), float("nan"),
)


def _full_plan() -> dict:
    """A plan with every section and every field set."""
    return {
        "seed": 7,
        "device": {"read_error_rate": 0.1, "write_error_rate": 0.1,
                   "permanent_fraction": 0.2, "latency_spike_rate": 0.1,
                   "latency_spike_ms": 4.0, "max_faults": 9},
        "fragments": {"corrupt_read_rate": 0.1, "sticky_fraction": 0.5,
                      "max_faults": None},
        "compressor": {"crash_rate": 0.1, "expand_rate": 0.1,
                       "max_faults": 3},
        "lfs": {"crash_rate": 0.1, "torn_fraction": 0.5,
                "checkpoint_lost_rate": 0.1, "max_faults": 2},
        "retry": {"max_attempts": 6, "base_backoff_ms": 0.5,
                  "multiplier": 4.0, "max_backoff_ms": 50.0},
        "degradation": {"window": 32, "fault_threshold": 0.5,
                        "min_events": 4, "cooldown_evictions": 64},
    }


def _documents() -> list:
    docs = [json.loads(path.read_text())
            for path in sorted(PLANS.glob("*.json"))]
    assert docs, PLANS
    return docs + [_full_plan()]


def _paths(doc: dict) -> list:
    """Every (section or None, key) a value sits at."""
    out = []
    for key, value in doc.items():
        out.append((None, key))
        if isinstance(value, dict):
            out.extend((key, inner) for inner in value)
    return out


def _mutate(rng: random.Random, doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    section, key = rng.choice(_paths(doc))
    owner = doc if section is None else doc[section]
    kind = rng.randrange(4)
    if kind == 0:                       # a value of another type or size
        owner[key] = rng.choice(SWAPS)
    elif kind == 1:                     # a key gone
        del owner[key]
    elif kind == 2:                     # a key nobody knows
        owner[f"{key}_typo"] = owner[key]
    else:                               # a whole section replaced
        doc[rng.choice(("device", "retry", "lfs", "seed"))] = (
            rng.choice(SWAPS))
    return doc


def _check_loaded(plan: FaultPlan) -> None:
    """What a run does first with a plan it loaded."""
    plan.build(ResilienceCounters())
    policy = plan.retry_policy()
    for index in (0, 1, 7, min(plan.retry.max_attempts - 1, 4095)):
        seconds = policy.backoff_seconds(index)
        assert 0.0 <= seconds <= policy.max_backoff_s, (index, seconds)
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def _load(path: Path, text: str):
    """The plan, or ``None`` when the decoder refused the document."""
    path.write_text(text)
    start = time.perf_counter()
    try:
        plan = FaultPlan.from_json(path)
    except FaultPlanError:
        plan = None
    assert time.perf_counter() - start < SECONDS_PER_DECODE, text
    if plan is not None:
        _check_loaded(plan)
    return plan


def test_committed_plans_load(tmp_path):
    for doc in _documents():
        assert _load(tmp_path / "plan.json", json.dumps(doc)) is not None


def test_truncation_at_every_length_is_refused(tmp_path):
    for doc in _documents():
        text = json.dumps(doc)
        for length in range(len(text)):
            assert _load(tmp_path / "plan.json", text[:length]) is None, (
                text[:length])


@pytest.mark.parametrize("seed", range(4))
def test_mutated_plans_load_or_raise_fault_plan_error(tmp_path, seed):
    rng = random.Random(f"plans-{seed}")
    refused = 0
    for doc in _documents():
        for _ in range(MUTATIONS_PER_PLAN // 4):
            text = json.dumps(_mutate(rng, doc))
            refused += _load(tmp_path / "plan.json", text) is None
    # Most mutations break a rule; what loads is a usable plan.
    assert refused > MUTATIONS_PER_PLAN // 2


@pytest.mark.parametrize("doc", [
    {"seed": True},
    {"retry": {"max_attempts": True}},
    {"device": {"read_error_rate": False}},
    {"device": {"max_faults": True}},
    {"degradation": {"window": True}},
    {"device": {"latency_spike_ms": float("inf")}},
    {"retry": {"base_backoff_ms": float("inf")}},
    {"retry": {"max_backoff_ms": float("inf")}},
    {"retry": {"multiplier": float("inf")}},
    {"retry": {"base_backoff_ms": float("nan")}},
], ids=repr)
def test_booleans_and_non_finite_numbers_are_refused(doc):
    with pytest.raises(FaultPlanError):
        FaultPlan.from_dict(doc)


def test_undecodable_bytes_are_refused(tmp_path):
    path = tmp_path / "plan.json"
    for raw in (b"\xff\xfe{", b'{"seed": "\xc3"}', b"[" * 100_000):
        path.write_bytes(raw)
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json(path)


def test_backoff_saturates_where_growth_overflows():
    policy = RetryPolicy(base_backoff_s=0.0005, multiplier=4.0,
                         max_backoff_s=0.05)
    assert policy.backoff_seconds(512) == 0.05    # 4.0 ** 512 overflows
    assert policy.backoff_seconds(10 ** 6) == 0.05
    assert policy.backoff_seconds(0) == 0.0005    # below the cap: as before
    zero = RetryPolicy(base_backoff_s=0.0, multiplier=4.0)
    assert zero.backoff_seconds(10 ** 6) == 0.0


def test_a_run_whose_retries_overflow_the_backoff_finishes(tmp_path, capsys):
    """Every transfer fails and the backoff outgrows a float on the
    third retry: the run ends normally, retries exhausted and counted."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "device": {"read_error_rate": 1.0, "write_error_rate": 1.0},
        "retry": {"max_attempts": 4, "multiplier": 1e300},
    }))
    assert main(["run", "--workload", "thrasher", "--scale", "0.02",
                 "--faults", str(plan)]) == 0
    assert "injected_faults" in capsys.readouterr().out

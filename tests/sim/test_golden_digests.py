"""Golden-equivalence digests for the simulator hot-path overhaul.

Every optimization of the per-reference path (engine, VM, LRU, allocator,
compression cache, fragment store, sampler) must be *semantics-preserving*:
fault counts, elapsed virtual seconds, every counter, and the sweep digests
may not move by a single bit.  These tests pin the complete
:meth:`repro.sim.engine.RunResult.as_dict` output of each benchmark
workload — the same workload/machine configurations ``repro perf`` times
for ``BENCH_sim.json`` — to SHA-256 digests captured on the unoptimized
tree immediately before the overhaul.

A digest mismatch means an "optimization" changed simulation behaviour;
fix the optimization, do not refresh the digest.  (Refreshing is only
legitimate when simulation *semantics* change deliberately, in a PR whose
point is a behaviour change.)

The memo-mode runs use the exact ``bench_sim`` configuration (scale 0.12).
The exact-compression runs — where every measurement invokes the real
kernel, no memoization — run at a reduced scale to keep tier-1 wall-clock
in budget while still driving every fault/evict/clean/GC path.
"""

from __future__ import annotations

import pytest

from repro.mem.page import mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.workloads import catalog

#: bench_sim's configuration: memory scales with the workload footprint.
MEMO_SCALE = 0.12
EXACT_SCALE = 0.06

#: SHA-256 of canonical JSON (sorted keys, compact separators) of
#: RunResult.as_dict(), captured pre-optimization.
GOLDEN_MEMO = {
    "compare": "68847ee9b40424e2af14039cb1112f40fe385e82aaf0680c41de853199f858b6",
    "gold-warm": "5a728cf9ca7bb0bac0d20c87f1b0e95d9942bd5392b7385477d62ce6e6a4bb3b",
    "isca": "4dac2ea74979c1aec367aabf73aa8bf2712f901c05285c8eee9afc8f3af8cf12",
    "sort-partial": "6102318aef8b043c626017a155455f9e67f6497a748cd17aa79f1afe4fe0fd2e",
    "sort-random": "a88d2ac222daebfac0d604ee8e334a6a963edb373800d1d9fb0abd548ebe9cb9",
    "synthetic": "df246c2c822abff410d1d83c1b3e3a87d790c2b413ccefc287ce80a1fae1a131",
    "thrasher": "f8963fd54e8f851c6a49ec61ea29538e2d3e02aee71c25e3e950d852c810d35c",
}

GOLDEN_EXACT = {
    "compare": "ca7919d5b65682784a284113ffedfdd1e37313da9c476030e49e3fee280f4a2e",
    "gold-warm": "4b74a83bdd2d249ef6b3422281b46d2df4b053a1179ddc98c6fcfc43da95614a",
    "isca": "d8807affc1a78693102339a071410d42cbcc93c37c5990688d4f9279c4b9a08c",
    "sort-partial": "76d6441ff46acde3363290676a783c07c8c9895ee2f3ba51f14c00f476b7e93e",
    "sort-random": "8152283a97ecbb4437484867a446b86c54fe84ad3426922f32b31cef3f18c0cb",
    "synthetic": "6c6db5e4b88ac2ab7d5cbf64210f51dc2a696060f6370dd8725ea0fc5ba1967c",
    "thrasher": "4b5e1120e45848063f5712247b89dcc09c3c6ab6901ceb572a8b3633089792bf",
}


def run_digest(name: str, scale: float, exact: bool,
               paranoid: bool = False) -> str:
    """Build the bench_sim machine for ``name`` and digest its RunResult."""
    workload = catalog.build(name, scale)
    config = MachineConfig(
        memory_bytes=mbytes(6 * scale), exact_compression=exact,
        paranoid=paranoid,
    )
    machine = Machine(config, workload.build())
    refs = list(workload.references())
    return SimulationEngine(machine).run(iter(refs)).digest()


@pytest.mark.parametrize("name", sorted(GOLDEN_MEMO))
def test_memo_mode_matches_preoptimization_digest(name):
    assert run_digest(name, MEMO_SCALE, exact=False) == GOLDEN_MEMO[name], (
        f"{name}: simulation output diverged from the pre-optimization "
        "behaviour (memoized sampler, bench_sim configuration)"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_EXACT))
def test_exact_mode_matches_preoptimization_digest(name):
    assert run_digest(name, EXACT_SCALE, exact=True) == GOLDEN_EXACT[name], (
        f"{name}: simulation output diverged from the pre-optimization "
        "behaviour (exact compression, no memoization)"
    )


# The runs above use the compiled kernel library, so they pin it against
# digests captured on the pure-Python tree.  The runs below close the
# loop from the other side: machines whose kernels run the reference
# loops (``repro.compression._reference``), with the process-wide
# result caches emptied so that every kernel result is the loops' own,
# reproduce the same digests.  Exact mode — where every reference
# invokes a kernel — covers a subset to keep tier-1 wall-clock in budget.

@pytest.mark.parametrize("name", sorted(GOLDEN_MEMO))
def test_memo_mode_scalar_kernels_match_same_digest(name, reference_kernels):
    assert run_digest(name, MEMO_SCALE, exact=False) == GOLDEN_MEMO[name], (
        f"{name}: the reference loops changed simulation output — a "
        "compiled kernel diverged from its loop"
    )


@pytest.mark.parametrize("name", ["thrasher", "compare"])
def test_exact_mode_scalar_kernels_match_same_digest(name, reference_kernels):
    assert run_digest(name, EXACT_SCALE, exact=True) == GOLDEN_EXACT[name], (
        f"{name}: the reference loops changed exact-mode output — a "
        "compiled kernel diverged from its loop"
    )


# A run that is not paranoid never decodes a payload on the fault path,
# so the digests above do not check that stored payloads decode to their
# pages.  paranoid=True decodes every page it fetches and compares it
# with the page's ground truth; it implies exact compression, so it must
# reproduce the exact-mode digests.

@pytest.mark.parametrize("name", ["compare", "gold-warm", "isca", "thrasher"])
def test_exact_mode_paranoid_matches_same_digest(name):
    assert run_digest(
        name, EXACT_SCALE, exact=True, paranoid=True
    ) == GOLDEN_EXACT[name], (
        f"{name}: paranoid verification changed exact-mode output"
    )

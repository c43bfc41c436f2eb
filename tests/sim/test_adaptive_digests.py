"""Frozen golden digests for adaptive-selector simulation runs.

The adaptive compressor chooses a kernel per page from a learned memo,
so its simulation output depends on selection behaviour as well as on
every kernel's payload format.  These tests pin the complete
:meth:`repro.sim.engine.RunResult.as_dict` output — including the new
``selection`` counters — of adaptive runs to SHA-256 digests, the same
way ``test_golden_digests.py`` pins the default (lzrw1) runs.

Three properties are checked:

* the digests match frozen values (any change to a kernel's payload
  format, the selector's decision rule, the kind fingerprint, or the
  counter bookkeeping shows up here);
* the run is deterministic: two runs in the same process — the second
  with a warm process-wide result cache — produce identical output,
  selection counters included;
* a machine whose candidates run the reference loops
  (``repro.compression._reference``) produces the same digest, so the
  compiled library stays wall-clock-only under the selector too.

A digest mismatch from an optimization means the optimization changed
behaviour; fix it rather than refreshing the digest.  Refreshing is
legitimate only when selection semantics change deliberately.
"""

from __future__ import annotations

import pytest

from repro.compression.sampler import clear_shared_results
from repro.mem.page import mbytes
from repro.sim.engine import SimulationEngine
from repro.sim.machine import Machine, MachineConfig
from repro.workloads import catalog

SCALE = 0.12

#: SHA-256 of canonical JSON (sorted keys, compact separators) of
#: RunResult.as_dict() for ``--compressor adaptive`` runs at bench_sim's
#: configuration, captured when the selector landed.
GOLDEN_ADAPTIVE = {
    "thrasher": "a7d1e3bfdb32f06f9b57a599baa64c1286c41fa3f0051b96883924151ac18955",
    "compare": "1e621cf2e54769e183524fd3be8f0d06fe61debc13a0b2c2fdfbd7ddf838c5a5",
    "gold-warm": "0c90a2ef48bb6dfdc48eef1a22063283adb55737cbd0c7f9f54614ccdad6a0b8",
}


def run_adaptive(name: str):
    """One adaptive run at the bench_sim configuration; returns the
    RunResult."""
    workload = catalog.build(name, SCALE)
    config = MachineConfig(
        memory_bytes=mbytes(6 * SCALE), compressor="adaptive",
    )
    machine = Machine(config, workload.build())
    refs = list(workload.references())
    return SimulationEngine(machine).run(iter(refs))


def digest_of(result) -> str:
    return result.digest()


@pytest.mark.parametrize("name", sorted(GOLDEN_ADAPTIVE))
def test_adaptive_matches_frozen_digest(name):
    assert digest_of(run_adaptive(name)) == GOLDEN_ADAPTIVE[name], (
        f"{name}: adaptive-selector simulation output diverged from the "
        "frozen behaviour (kernel payloads, selection rule, or counters "
        "changed)"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_ADAPTIVE))
def test_adaptive_scalar_kernels_match_same_digest(name, reference_kernels):
    assert digest_of(run_adaptive(name)) == GOLDEN_ADAPTIVE[name], (
        f"{name}: the reference loops changed adaptive output — candidate "
        "payloads must be bit-identical to the compiled library's"
    )


def test_adaptive_run_twice_is_deterministic():
    """Same workload, same seed, twice: identical selection counters and
    identical full output — cold and warm process-wide caches agree."""
    clear_shared_results()
    first = run_adaptive("thrasher")
    second = run_adaptive("thrasher")
    assert first.selection_counters == second.selection_counters
    assert digest_of(first) == digest_of(second)
    assert first.selection_counters is not None
    (tier_counters,) = first.selection_counters.values()
    assert tier_counters["pages"] > 0
    assert tier_counters["chosen"], "selector never chose a kernel"

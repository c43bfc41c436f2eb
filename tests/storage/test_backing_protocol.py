"""The two compressed-page stores against the written-down surface.

``MachineConfig.store`` swaps :class:`FragmentStore` for
:class:`LogStructuredStore` under the same tier chain; nothing checks the
swap at run time, so this pins it name by name and parameter by
parameter.
"""

import inspect

import pytest

from repro.storage import (
    BackingStore,
    FragmentStore,
    LogStructuredStore,
    WriteOutTarget,
)
from repro.tiers.compressed import DemotionSink


def _methods(protocol):
    return {
        name: member
        for name, member in vars(protocol).items()
        if inspect.isfunction(member) and not name.startswith("_")
    }


def _assert_methods_agree(protocol, implementation):
    for name, declared in _methods(protocol).items():
        actual = getattr(implementation, name)
        assert inspect.signature(actual) == inspect.signature(declared), (
            f"{implementation.__name__}.{name}"
        )


@pytest.mark.parametrize("store", [FragmentStore, LogStructuredStore])
def test_store_matches_backing_store_protocol(store):
    _assert_methods_agree(WriteOutTarget, store)
    _assert_methods_agree(BackingStore, store)
    assert isinstance(store.live_pages, property)
    source = inspect.getsource(store.__init__)
    for attribute in ("counters", "gc_generation"):
        assert f"self.{attribute} =" in source


def test_protocol_is_exactly_the_surface_in_use():
    assert sorted(_methods(WriteOutTarget)) == ["contains", "flush", "put"]
    assert sorted(_methods(BackingStore)) == [
        "collect_due", "free", "get", "maybe_collect", "peek",
    ]
    assert BackingStore.__annotations__.keys() == {
        "counters", "gc_generation",
    }
    assert isinstance(BackingStore.live_pages, property)


def test_demotion_sink_is_a_write_out_target():
    _assert_methods_agree(WriteOutTarget, DemotionSink)


def test_both_stores_bind_the_one_read_check():
    from repro.storage.backing import verify_payload

    assert FragmentStore._verify is verify_payload
    assert LogStructuredStore._verify is verify_payload

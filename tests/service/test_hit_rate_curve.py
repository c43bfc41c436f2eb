"""The op stream's LRU hit-rate curve against the store it describes.

With the ``null`` kernel (a page stores at its own size), one tier and
no quota a virtual slot is one LRU of ``tier bytes // page size``
pages, so :func:`repro.model.locality.store_distances` must predict
every GET's hit or miss exactly, and ``serve-bench``'s measured
``hit_rate`` must equal its curve's ``at_capacity`` point.
"""

import random

import pytest

from repro.model.locality import INFINITE, store_distances
from repro.service.bench import run_service_point, service_spec
from repro.service.config import ServiceConfig, TenantSpec
from repro.service.store import VslotStore

PAGE = 64


def replay(stream, capacity):
    """Which gets of ``stream`` hit in one slot of ``capacity`` pages."""
    config = ServiceConfig(
        shards=1, vslots=1, tenants=(TenantSpec("t"),),
        tier_bytes=(capacity * PAGE,), compressor="null", page_size=PAGE,
    )
    store = VslotStore(config, 0)
    hits = []
    for op, key in stream:
        if op == "get":
            hits.append(store.get(0, key) is not None)
        elif op == "put":
            store.put(0, key, bytes([key]) * PAGE)
        else:
            store.delete(0, key)
    return hits


@pytest.mark.parametrize("stream, capacity", [
    # A missed get stores nothing: the second get misses too.
    ([("put", 1), ("put", 0), ("get", 1), ("get", 1)], 1),
    # A delete frees a slot and brings no evicted key back.
    ([("put", 2), ("put", 1), ("put", 0), ("delete", 1), ("get", 2)], 2),
])
def test_the_store_rules(stream, capacity):
    distances = store_distances(stream)
    assert replay(stream, capacity) == [
        d != INFINITE and d <= capacity for d in distances]


def test_every_get_is_a_hit_exactly_when_the_curve_says():
    """400 seeded streams over six keys, every size from one to six."""
    rng = random.Random(34)
    for _ in range(400):
        stream = [(rng.choice(("get", "get", "put", "put", "delete")),
                   rng.randrange(6)) for _ in range(rng.randrange(1, 60))]
        distances = store_distances(stream)
        for capacity in range(1, 7):
            assert replay(stream, capacity) == [
                d != INFINITE and d <= capacity for d in distances
            ], (stream, capacity)


def test_serve_bench_hit_rate_is_the_curve_at_capacity():
    """Four raw pages a slot, no quota, one shard process: the measured
    rate is the curve's, to the last bit, and the cache is small enough
    that the curve's unbounded point is higher."""
    tenants = [
        {"name": "alpha", "weight": 3.0, "keys": 600, "quota_bytes": None},
        {"name": "beta", "weight": 1.0, "keys": 200, "quota_bytes": None},
    ]
    run = run_service_point(service_spec(
        1, ops=3000, clients=4, tenants=tenants, compressor="null",
        tier_bytes=(64 * 4 * 4096,),
    ))
    curve = run["hit_rate_curve"]
    assert curve["capacity_pages"] == 4
    assert run["hit_rate"] == curve["at_capacity"]
    assert 0 < curve["at_capacity"] < curve["infinite"]

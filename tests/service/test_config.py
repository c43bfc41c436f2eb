"""ServiceConfig: validation, routing invariants, CLI tenant grammar."""

import dataclasses

import pytest

from repro.service.config import (
    ServiceConfig,
    TenantSpec,
    page_key,
    tenants_from_spec,
)


def make_config(**overrides):
    defaults = dict(shards=4, vslots=16, tier_bytes=(1 << 20,),
                    page_size=4096)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestValidation:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.shards == 1 and config.vslots == 64

    @pytest.mark.parametrize("bad", [
        dict(shards=0),
        dict(shards=32, vslots=16),
        dict(tenants=()),
        dict(tenants=(TenantSpec("a"), TenantSpec("a"))),
        dict(tier_bytes=()),
        dict(tier_bytes=(16 * 4096 - 1,)),  # < one page per vslot
        dict(page_size=32),
        dict(batch_ops=0),
        dict(max_pending=8, batch_ops=32),
        dict(tenant_inflight=0),
        dict(debug_op_delay_s=-1.0),
        dict(compressor="no-such-kernel"),
    ])
    def test_rejected_geometries(self, bad):
        with pytest.raises((ValueError, KeyError)):
            make_config(**bad)

    def test_tenant_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("")
        with pytest.raises(ValueError):
            TenantSpec("a:b")
        with pytest.raises(ValueError):
            TenantSpec("ok", quota_bytes=0)


class TestRouting:
    def test_slots_of_shard_partition_the_slot_space(self):
        config = make_config(shards=3, vslots=16)
        owned = [slot for shard in range(3)
                 for slot in config.slots_of_shard(shard)]
        assert sorted(owned) == list(range(16))

    def test_shard_of_agrees_with_vslot_routing(self):
        config = make_config(shards=5, vslots=40)
        for key in range(0, 4000, 7):
            vslot = config.vslot_of(key)
            assert config.shard_of(key) == config.shard_of_vslot(vslot)
            assert vslot in config.slots_of_shard(config.shard_of(key))

    def test_vslot_of_is_shard_count_independent(self):
        base = make_config(shards=1, vslots=32)
        resharded = base.with_shards(8)
        for key in range(0, 10000, 13):
            assert base.vslot_of(key) == resharded.vslot_of(key)

    def test_with_shards_preserves_geometry(self):
        base = make_config(shards=2, vslots=16,
                           tenants=(TenantSpec("t", 1 << 20),))
        other = base.with_shards(4)
        assert other.shards == 4
        assert other.vslots == base.vslots
        assert other.tenants == base.tenants
        assert other.slot_tier_bytes() == base.slot_tier_bytes()
        assert other.slot_quota_bytes(0) == base.slot_quota_bytes(0)

    def test_with_shards_keeps_every_other_field(self):
        """Every field set away from its default, so one added later
        and forgotten by ``with_shards`` shows up here as a reset."""
        base = ServiceConfig(
            shards=2, vslots=16, tenants=(TenantSpec("t", 1 << 20),),
            tier_bytes=(1 << 20, 2 << 20), compressor="rle",
            page_size=2048, batch_ops=8, max_pending=64,
            tenant_inflight=5, debug_op_delay_s=0.25,
        )
        defaults, resharded = ServiceConfig(), base.with_shards(4)
        for field in dataclasses.fields(ServiceConfig):
            value = getattr(base, field.name)
            assert value != getattr(defaults, field.name), field.name
            assert getattr(resharded, field.name) == (
                4 if field.name == "shards" else value), field.name


class TestCarvings:
    def test_slot_tier_bytes(self):
        config = make_config(vslots=16, tier_bytes=(1 << 20, 2 << 20))
        assert config.slot_tier_bytes() == (65536, 131072)

    def test_slot_quota_floor_is_one_byte(self):
        config = make_config(
            vslots=16, tenants=(TenantSpec("tiny", quota_bytes=4),)
        )
        assert config.slot_quota_bytes(0) == 1

    def test_no_quota_stays_none(self):
        assert make_config().slot_quota_bytes(0) is None

    def test_tenant_index(self):
        config = make_config(
            tenants=(TenantSpec("alpha"), TenantSpec("beta"))
        )
        assert config.tenant_index("beta") == 1
        with pytest.raises(KeyError):
            config.tenant_index("gamma")


class TestPageKey:
    def test_stable_across_calls_and_types(self):
        assert page_key("alpha:17") == page_key(b"alpha:17")
        # Pinned: blake2b-8 is process- and run-independent, unlike
        # hash() under PYTHONHASHSEED.  A change here breaks every
        # recorded ledger digest.
        assert page_key("alpha:0") == 0xA66B980AC0DA4735

    def test_distinct_names_distinct_keys(self):
        keys = {page_key(f"tenant:{i}") for i in range(1000)}
        assert len(keys) == 1000


class TestTenantGrammar:
    def test_names_only(self):
        tenants = tenants_from_spec("alpha,beta")
        assert [t.name for t in tenants] == ["alpha", "beta"]
        assert all(t.quota_bytes is None for t in tenants)

    def test_quotas_and_weights(self):
        tenants = tenants_from_spec("alpha=4:3,beta=1.5:1")
        assert tenants[0].quota_bytes == 4 << 20
        assert tenants[1].quota_bytes == int(1.5 * (1 << 20))

    def test_default_quota_applies_to_bare_names(self):
        tenants = tenants_from_spec("a,b=2", default_quota=1 << 20)
        assert tenants[0].quota_bytes == 1 << 20
        assert tenants[1].quota_bytes == 2 << 20

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            tenants_from_spec(" , ")

"""TierSpec validation and the command-line chain grammar."""

import pytest

from repro.ccache.cleaner import CleanerPolicy
from repro.tiers.spec import (
    TierSpec,
    parse_tier_specs,
    two_tier_specs,
    validate_tier_specs,
)


class TestTierSpecValidation:
    def test_defaults_are_valid(self):
        spec = TierSpec(name="cc")
        assert spec.compressor == "lzrw1"
        assert spec.max_frames is None
        assert spec.compress_scale == 1.0

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            TierSpec(name="")
        with pytest.raises(ValueError, match="name"):
            TierSpec(name="l1,l2")

    def test_dashes_and_underscores_allowed(self):
        assert TierSpec(name="fast-l1").name == "fast-l1"
        assert TierSpec(name="tier_2").name == "tier_2"

    def test_unknown_compressor_rejected(self):
        with pytest.raises(ValueError, match="compressor"):
            TierSpec(name="l1", compressor="gzip")

    def test_bad_max_frames_rejected(self):
        with pytest.raises(ValueError, match="max_frames"):
            TierSpec(name="l1", max_frames=0)
        with pytest.raises(ValueError, match="max_frames"):
            TierSpec(name="l1", max_frames=-3)

    def test_bad_compress_scale_rejected(self):
        with pytest.raises(ValueError, match="compress_scale"):
            TierSpec(name="l1", compress_scale=0.0)
        with pytest.raises(ValueError, match="compress_scale"):
            TierSpec(name="l1", compress_scale=float("nan"))

    def test_custom_cleaner_carried(self):
        cleaner = CleanerPolicy(target_clean_fraction=0.5)
        assert TierSpec(name="l1", cleaner=cleaner).cleaner is cleaner


class TestChainValidation:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            validate_tier_specs(())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            validate_tier_specs(
                (TierSpec(name="cc"), TierSpec(name="cc"))
            )


class TestParseGrammar:
    def test_single_item(self):
        (spec,) = parse_tier_specs("lzrw1")
        assert spec.name == "l1"
        assert spec.compressor == "lzrw1"
        assert spec.max_frames is None

    def test_full_two_tier_item_form(self):
        l1, l2 = parse_tier_specs("lzrw1:48,lzss:0:2")
        assert (l1.name, l1.compressor, l1.max_frames) == ("l1", "lzrw1", 48)
        assert (l2.name, l2.compressor, l2.max_frames) == ("l2", "lzss", None)
        assert l2.compress_scale == 2.0

    def test_zero_frames_means_uncapped(self):
        (spec,) = parse_tier_specs("lzss:0")
        assert spec.max_frames is None

    def test_preset(self):
        assert parse_tier_specs("two-tier") == two_tier_specs()
        l1, l2 = parse_tier_specs("two-tier")
        assert l1.compressor == "lzrw1" and l1.max_frames == 48
        assert l2.compressor == "lzss" and l2.compress_scale == 2.0

    def test_whitespace_tolerated(self):
        l1, l2 = parse_tier_specs(" lzrw1:48 , lzss ")
        assert l1.max_frames == 48 and l2.compressor == "lzss"

    def test_bad_items_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_tier_specs("")
        with pytest.raises(ValueError, match="bad tier item"):
            parse_tier_specs("lzrw1:1:2:3")
        with pytest.raises(ValueError, match="bad tier item"):
            parse_tier_specs(",lzss")
        with pytest.raises(ValueError, match="max_frames"):
            parse_tier_specs("lzrw1:many")
        with pytest.raises(ValueError, match="max_frames"):
            parse_tier_specs("lzrw1:-1")
        with pytest.raises(ValueError, match="compress_scale"):
            parse_tier_specs("lzrw1:0:fast")
        with pytest.raises(ValueError, match="compressor"):
            parse_tier_specs("lzrw1,gzip")

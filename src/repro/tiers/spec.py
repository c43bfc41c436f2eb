"""Declarative per-tier configuration.

A :class:`TierSpec` names one compressed tier of the chain: which kernel
it runs, how many frames it may map, how eagerly its cleaner demotes,
and how its kernel's speed relates to the baseline cost model.  Every
tier past the first competes for frames in the global trading policy
with age weight 1.0; the warmest trades through the machine's
:class:`~repro.ccache.allocator.AllocationBiases`.  ``MachineConfig.tiers`` is a
tuple of these, warmest first; ``None`` keeps the paper's single-tier
layout built from the legacy ``compressor``/``ccache_max_frames``/
``adaptive_gate`` fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Optional, Tuple

from ..ccache.cleaner import CleanerPolicy
from ..compression import available as available_compressors


@dataclass(frozen=True)
class TierSpec:
    """Configuration of one compressed tier.

    Args:
        name: unique identifier within the chain (used for allocator
            pool labels and per-tier stats).
        compressor: kernel name (``lzrw1``, ``lzss``, ``wk``, ``rle``).
        max_frames: cap on frames the tier may map; ``None`` lets the
            global allocator size it (the paper's variable design).
        cleaner: demotion pacing — the tier's cleaner writes its oldest
            dirty pages to the next level (colder tier, or the store).
        compress_scale: multiplier on the cost model's per-page
            compression/decompression seconds for this tier's kernel
            (e.g. a high-ratio L2 kernel that runs 2x slower).
    """

    name: str
    compressor: str = "lzrw1"
    max_frames: Optional[int] = None
    cleaner: CleanerPolicy = field(default_factory=CleanerPolicy)
    compress_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "").replace(
            "_", ""
        ).isalnum():
            raise ValueError(
                f"tier name must be a non-empty alphanumeric/-/_ token, "
                f"got {self.name!r}"
            )
        known_names = available_compressors()
        if self.compressor not in known_names:
            known = ", ".join(sorted(known_names))
            raise ValueError(
                f"tier {self.name!r}: unknown compressor "
                f"{self.compressor!r}; known: {known}"
            )
        if self.max_frames is not None and self.max_frames < 1:
            raise ValueError(
                f"tier {self.name!r}: max_frames must be >= 1 or None, "
                f"got {self.max_frames!r}"
            )
        if not isfinite(self.compress_scale) or self.compress_scale <= 0:
            raise ValueError(
                f"tier {self.name!r}: compress_scale must be a positive "
                f"finite number, got {self.compress_scale!r}"
            )


def validate_tier_specs(specs: Tuple[TierSpec, ...]) -> None:
    """Chain-level validation: non-empty, unique names."""
    if not specs:
        raise ValueError("a tier chain needs at least one TierSpec")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"tier names must be unique, got {names}")


def parse_tier_specs(text: str) -> Tuple[TierSpec, ...]:
    """Parse a compact command-line chain description.

    Grammar: comma-separated tiers, warmest first, each
    ``compressor[:max_frames[:compress_scale]]``; or the preset name
    ``two-tier``.  Examples::

        lzrw1,lzss          # two uncapped tiers
        lzrw1:48,lzss:0:2   # capped 48-frame L1; uncapped 2x-cost L2
        two-tier            # the standard preset (see two_tier_specs)

    A ``max_frames`` of ``0`` means uncapped.
    """
    if not isinstance(text, str):
        raise ValueError(f"a tier spec is a string, got {text!r}")
    text = text.strip()
    if not text:
        raise ValueError("empty tier spec")
    if text == "two-tier":
        return two_tier_specs()
    specs = []
    for position, item in enumerate(text.split(",")):
        parts = item.strip().split(":")
        if len(parts) > 3 or not parts[0]:
            raise ValueError(
                f"bad tier item {item!r}; expected "
                "compressor[:max_frames[:compress_scale]]"
            )
        kwargs = {"name": f"l{position + 1}", "compressor": parts[0]}
        if len(parts) >= 2 and parts[1]:
            try:
                cap = int(parts[1])
            except ValueError:
                raise ValueError(
                    f"bad max_frames in tier item {item!r}"
                ) from None
            if cap < 0:
                raise ValueError(
                    f"max_frames must be >= 0 in tier item {item!r}"
                )
            kwargs["max_frames"] = cap or None
        if len(parts) == 3 and parts[2]:
            try:
                kwargs["compress_scale"] = float(parts[2])
            except ValueError:
                raise ValueError(
                    f"bad compress_scale in tier item {item!r}"
                ) from None
        specs.append(TierSpec(**kwargs))
    result = tuple(specs)
    validate_tier_specs(result)
    return result


def two_tier_specs(l1_frames: Optional[int] = 48) -> Tuple[TierSpec, ...]:
    """The standard two-compressed-tier preset.

    A small, fast LZRW1 L1 absorbs the eviction burst; demoted pages are
    recompressed with the denser (and, per ``compress_scale``, slower)
    LZSS into an allocator-sized L2 that trades age-for-age with the
    uncompressed pool; the fragment store backs the whole chain.
    """
    return (
        TierSpec(name="l1", compressor="lzrw1", max_frames=l1_frames),
        TierSpec(name="l2", compressor="lzss", compress_scale=2.0),
    )

"""The workload catalogue: names, sizes, and the spec round trip."""

from __future__ import annotations

import json

import pytest

from repro.mem.page import mbytes
from repro.workloads import (
    CompareWorkload,
    GoldWorkload,
    MultiProgramWorkload,
    Thrasher,
    catalog,
)

#: ``(total_pages, reference_count())`` per name and scale, recorded
#: from ``cli.WORKLOAD_FACTORIES`` before the catalogue replaced it.
SIZES = {
    0.05: {
        "compare": (308, 1846), "diurnal": (128, 960),
        "gold-warm": (432, 3647), "isca": (256, 3197),
        "multiprogram": (385, 3510), "relaunch": (168, 1344),
        "sort-partial": (231, 1764), "sort-random": (231, 1764),
        "synthetic": (103, 2000), "thrasher": (154, 462),
    },
    0.12: {
        "compare": (738, 4426), "diurnal": (308, 2310),
        "gold-warm": (1038, 8693), "isca": (615, 7727),
        "multiprogram": (923, 8873), "relaunch": (401, 3224),
        "sort-partial": (553, 4916), "sort-random": (553, 4916),
        "synthetic": (246, 4800), "thrasher": (369, 1107),
    },
    1.0: {
        "compare": (6144, 36862), "diurnal": (2560, 19200),
        "gold-warm": (8640, 72254), "isca": (5120, 64221),
        "multiprogram": (7680, 83315), "relaunch": (3328, 26880),
        "sort-partial": (4608, 54999), "sort-random": (4608, 54999),
        "synthetic": (2048, 40000), "thrasher": (3072, 9216),
    },
}


def test_the_ten_names():
    assert sorted(catalog.CATALOG) == sorted(SIZES[1.0])


@pytest.mark.parametrize("scale", sorted(SIZES))
@pytest.mark.parametrize("name", sorted(SIZES[1.0]))
def test_build_is_sized_as_recorded(name, scale):
    workload = catalog.build(name, scale)
    assert (workload.build().total_pages,
            workload.reference_count()) == SIZES[scale][name]


@pytest.mark.parametrize("name", sorted(SIZES[1.0]))
def test_specs_are_json_primitives(name):
    spec = catalog.spec(name, 0.05)
    assert json.loads(json.dumps(spec)) == spec
    assert spec["kind"] in {*catalog.KINDS, "multiprogram"}


def test_thrasher_is_twice_the_six_mbyte_machine():
    for scale in (0.05, 0.12, 1.0):
        spec = catalog.spec("thrasher", scale)
        assert spec["working_set_bytes"] == int(mbytes(6 * scale) * 2)
    workload = catalog.build("thrasher", 0.05)
    assert isinstance(workload, Thrasher)
    assert (workload.cycles, workload.write) == (3, True)


def test_overrides_replace_constructor_arguments():
    plain = catalog.from_spec(catalog.spec("gold-warm", 0.05))
    skewed = catalog.from_spec(catalog.spec(
        "gold-warm", 0.05, hot_fraction=0.3, hot_probability=0.8
    ))
    assert isinstance(plain, GoldWorkload)
    assert (skewed.hot_fraction, skewed.hot_probability) == (0.3, 0.8)
    assert (plain.hot_fraction, plain.hot_probability) != (0.3, 0.8)
    assert plain.index_bytes == skewed.index_bytes == mbytes(30 * 0.05)
    # An override never leaks into the catalogue.
    assert "hot_fraction" not in catalog.spec("gold-warm", 0.05)


def test_multiprogram_nests_specs():
    spec = catalog.spec("multiprogram", 0.05)
    assert [program["kind"] for program in spec["programs"]] == [
        "compare", "sort", "synthetic",
    ]
    workload = catalog.from_spec(spec)
    assert isinstance(workload, MultiProgramWorkload)
    assert isinstance(workload.programs[0], CompareWorkload)
    assert workload.programs[0].band_bytes == mbytes(12 * 0.05)


def test_unknown_names_and_kinds():
    with pytest.raises(KeyError):
        catalog.spec("doom", 0.05)
    with pytest.raises(ValueError, match="unknown workload kind 'doom'"):
        catalog.from_spec({"kind": "doom"})

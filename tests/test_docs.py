"""Docs held to the code they tabulate (as the ``EXPERIMENTS`` registry
holds ``sweep --experiment``): the workload catalogue, the keys of a
run spec, README's ``run --workload`` list, and the kernel inventory."""

from __future__ import annotations

import re
from pathlib import Path

from repro import compression, experiments
from repro.sim.machine import MachineConfig
from repro.workloads import catalog

ROOT = Path(__file__).resolve().parent.parent


def _table_after(path: str, heading: str):
    """Rows (lists of cell texts) of the first table under ``heading``."""
    text = (ROOT / path).read_text()
    section = text[text.index(heading):]
    rows = []
    for line in section.splitlines()[1:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    assert rows[1][0].startswith("---"), f"{path}: no table under {heading}"
    return rows[0], rows[2:]


def _grids_using_the_catalogue():
    """Sweep name -> catalogue names its grid builder takes."""
    pair = tuple(experiments._paging_pair(0.05))
    return {
        "ablations": pair, "tiers": pair, "lfs": pair,
        "kernels": experiments.KERNELS_WORKLOADS,
        "control": experiments.CONTROL_WORKLOADS,
    }


def test_workloads_md_catalogue_table_matches_the_code():
    header, rows = _table_after(
        "docs/workloads.md", "## The catalogue of named workloads"
    )
    assert header == ["name", "kind", "size at scale 1", "also used by"]
    assert [row[0].strip("`") for row in rows] == list(catalog.CATALOG)
    grids = _grids_using_the_catalogue()
    for name, kind, size, used_by in (
        [cell.strip("`") for cell in row] for row in rows
    ):
        assert kind == catalog.spec(name, 1.0)["kind"], name
        pages = int(re.search(r"([\d,]+) pages", size)[1].replace(",", ""))
        assert pages == catalog.build(name, 1.0).build().total_pages, name
        documented = {word for word in re.findall(r"[a-z0-9]+", used_by)
                      if word in experiments.EXPERIMENTS}
        assert documented == {grid for grid, names in grids.items()
                              if name in names}, name


def test_grids_take_those_names_from_the_catalogue():
    """What the table's last column claims, checked against the points:
    a grid's workload specs are catalogue specs, overrides apart."""
    for grid, names in _grids_using_the_catalogue().items():
        points = experiments.EXPERIMENTS[grid].points(0.05, {})
        kinds = {(p.spec["workload"]["kind"],
                  p.spec["workload"].get("partial"),
                  p.spec["workload"].get("mode")) for p in points}
        expected = set()
        for name in names:
            spec = catalog.spec(name, 0.05)
            expected.add((spec["kind"], spec.get("partial"),
                          spec.get("mode")))
        assert kinds == expected, grid


def test_sweep_md_lists_the_keys_from_spec_reads():
    header, rows = _table_after(
        "docs/sweep.md", "## The keys of a cell's `config`"
    )
    assert header == ["key", "accepts"]
    assert tuple(row[0].strip("`") for row in rows) == MachineConfig.SPEC_KEYS


def test_readme_workload_list_is_the_catalogue():
    text = (ROOT / "README.md").read_text()
    sentence = re.search(
        r"`run --workload`[^.]*?takes one of\s+(.*?)\s+—", text, re.S
    )[1]
    assert re.findall(r"`([a-z-]+)`", sentence) == sorted(catalog.CATALOG)


def test_kernels_md_inventory_is_the_registry():
    """One row per registered name, so docs/kernels.md's "Adding a
    kernel" cannot leave the inventory behind."""
    header, rows = _table_after("docs/kernels.md", "## Inventory")
    assert header == ["name", "family", "favored content", "notes"]
    names = [row[0].strip("`") for row in rows]
    assert sorted(names) == list(compression.available())
    assert names[-1] == "adaptive"  # the selector "over the kernels above"
    assert all(cell for row in rows for cell in row)

import json
import re
from pathlib import Path

from perfbench import spans, workloads

ROOT = Path(__file__).resolve().parents[2]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_every_name_matches_the_pattern_and_is_unique():
    names = _names("workloads") + _names("end_to_end") + _names("per_layer")
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert len(names) == len(set(names))


def test_units_and_bounds_are_well_formed():
    bounds = {}
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
        assert 0 < entry["bound"] <= 0.25
        bounds[entry["name"]] = entry["bound"]
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert UNIT.fullmatch(entry["unit"])
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_are_the_registered_ones():
    assert tuple(_names("workloads")) == workloads.NAMES
    for entry in SPEC["workloads"]:
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200


def test_layer_metrics_emit_exactly_the_per_layer_names():
    empty = spans.Recorder()
    values = spans.layer_metrics(empty, empty, 1, 1)
    assert sorted(values) == sorted(_names("per_layer"))
    for name in values:
        assert NAME.fullmatch(name), name

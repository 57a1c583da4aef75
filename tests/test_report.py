import json

from alexlab.report import SCHEMA_VERSION, make_report


def test_report_dict_keys_and_json_round_trip():
    rep = make_report(
        "demo",
        {"h": 0.05, "ids": (1, 2)},
        [0.5, -0.01],
        tolerance=0.02,
        fitted={"c": 1.5},
        meta={"note": "x"},
    )
    d = rep.to_dict()
    assert set(d) == {"name", "params", "slacks", "tolerance", "pass", "fitted", "meta"}
    assert d["pass"] is True
    assert d["meta"]["schema_version"] == SCHEMA_VERSION
    assert d["meta"]["note"] == "x"
    assert json.loads(rep.to_json()) == d


def test_report_fails_below_tolerance_and_passes_without_slacks():
    assert not make_report("neg", {}, [0.1, -0.3], tolerance=0.2).passed
    assert make_report("empty", {}, [], tolerance=0.0).passed

"""Tests for bench/compare.py on synthetic result sets.

    python -m pytest bench/test_compare.py
"""

import json

import pytest

import compare

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def records(walls, rates=None, failed=0, workload="w"):
    rates = rates or [100.0] * len(walls)
    return {workload: [
        {"workload": workload, "trace": 0, "attempted": 10, "failed": failed,
         "metrics": {"wall_s": {"value": w, "unit": "s"},
                     "ops_per_s": {"value": r, "unit": "1/s"}}}
        for w, r in zip(walls, rates)
    ]}


def verdicts(base, new):
    return {row["metric"]: row["verdict"]
            for row in compare.compare(base, new, METRICS)}


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02]


def test_same_runs_are_ok():
    assert verdicts(records(TIGHT), records(TIGHT)) == {
        "wall_s": "ok", "ops_per_s": "ok", "failed_share": "ok"}


def test_slower_beyond_bound_is_worse():
    slower = [w * 1.2 for w in TIGHT]
    assert verdicts(records(TIGHT), records(slower))["wall_s"] == "worse"


def test_slower_within_bound_is_ok():
    slower = [w * 1.05 for w in TIGHT]
    assert verdicts(records(TIGHT), records(slower))["wall_s"] == "ok"


def test_faster_is_ok():
    faster = [w * 0.5 for w in TIGHT]
    assert verdicts(records(TIGHT), records(faster))["wall_s"] == "ok"


def test_wide_spread_is_unresolved():
    noisy = [0.8, 1.0, 1.3, 0.9, 1.2]
    assert verdicts(records(TIGHT), records(noisy))["wall_s"] == "unresolved"


def test_wide_spread_but_every_run_better_is_ok():
    noisy_but_faster = [0.5, 0.7, 0.9, 0.6, 0.8]
    assert verdicts(records(TIGHT), records(noisy_but_faster))["wall_s"] == "ok"


def test_single_run_is_unresolved():
    assert verdicts(records([1.0]), records([1.01]))["wall_s"] == "unresolved"


def test_higher_is_better_direction():
    base = records(TIGHT, rates=[100, 101, 99, 100, 102])
    lower_rate = records(TIGHT, rates=[80, 81, 79, 80, 82])
    higher_rate = records(TIGHT, rates=[120, 121, 119, 120, 122])
    assert verdicts(base, lower_rate)["ops_per_s"] == "worse"
    assert verdicts(base, higher_rate)["ops_per_s"] == "ok"


def test_more_failed_operations_is_worse():
    assert verdicts(records(TIGHT), records(TIGHT, failed=1))["failed_share"] == "worse"
    assert verdicts(records(TIGHT, failed=1), records(TIGHT))["failed_share"] == "ok"


def test_load_skips_traced_records(tmp_path):
    path = tmp_path / "results.jsonl"
    rows = records(TIGHT)["w"]
    rows[0]["trace"] = 1
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert len(compare.load(str(path))["w"]) == len(TIGHT) - 1


def test_main_exit_code(tmp_path, monkeypatch, capsys):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text("\n".join(json.dumps(r) for r in records(TIGHT)["w"]))
    new.write_text("\n".join(json.dumps(r) for r in records([w * 1.5 for w in TIGHT])["w"]))
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.setattr(compare, "ROOT", tmp_path)
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(new)]) == 1
    assert "worse" in capsys.readouterr().out


@pytest.mark.parametrize("values", [[], [0.0, 0.0]])
def test_spread_undefined(values):
    assert compare.spread(values) is None

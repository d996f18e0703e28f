import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import query_kinds  # noqa: E402


def test_labels_add_the_profile_where_a_kind_takes_one():
    assert query_kinds.labels({"kind": "f_n_c", "c": 0.1}) == ["f_n_c"]
    assert query_kinds.labels({"kind": "polya_operator_eval", "profile": "rn"}) == [
        "polya_operator_eval", "polya_operator_eval[rn]"]
    assert query_kinds.labels({"kind": "sikkema_function", "c_mode": "zero"}) == [
        "sikkema_function", "sikkema_function[zero]"]


def test_kind_table_on_fixed_latencies():
    # 100 fast queries of 1..100 and 100 slow ones of 101..200, half of them
    # rn: the slowest 1% is the two largest, 200 (rn) and 199
    fast = [(["fast"], float(t)) for t in range(1, 101)]
    slow = [(["slow"] + (["slow[rn]"] if t % 2 == 0 else []), float(t)) for t in range(101, 201)]
    rows = {row[0]: row[1:] for row in query_kinds.kind_table(fast + slow)}
    assert rows["fast"] == (100, 50.5, pytest.approx(99.01), 0.0)
    assert rows["slow"] == (100, 150.5, pytest.approx(199.01), 1.0)
    assert rows["slow[rn]"] == (50, 151.0, pytest.approx(199.02), 0.5)
    assert list(rows) == ["fast", "slow", "slow[rn]"]


def test_kind_table_takes_one_slowest_query_below_a_hundred():
    rows = query_kinds.kind_table([(["a"], 1.0), (["b"], 3.0), (["a"], 2.0)])
    assert [(name, share) for name, *_, share in rows] == [("a", 0.0), ("b", 1.0)]


def test_compare_table_pairs_each_figure_of_the_kinds_both_sides_have():
    first = [("a", 10, 2.0, 9.0, 0.5), ("b", 10, 3.0, 8.0, 0.5), ("gone", 1, 1.0, 1.0, 0.0)]
    second = [("a", 10, 1.5, 7.0, 0.25), ("b", 12, 3.5, 8.0, 0.75), ("new", 1, 1.0, 1.0, 0.0)]
    assert query_kinds.compare_table(first, second) == [
        ("a", (2.0, 1.5), (9.0, 7.0), (0.5, 0.25)),
        ("b", (3.0, 3.5), (8.0, 8.0), (0.5, 0.75)),
    ]

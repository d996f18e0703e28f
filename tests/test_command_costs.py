import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import command_costs  # noqa: E402


def test_cost_table_on_fixed_runs():
    # five runs of two commands; the second fails its check once
    runs = [
        {"scan": (1.0 + i, 40 * 1024 + 1024 * i, 100 + i, False),
         "verify": (0.5, 30 * 1024, 200, i == 3)}
        for i in range(5)
    ]
    rows = {row[0]: row[1:] for row in command_costs.cost_table(runs)}
    assert list(rows) == ["scan", "verify", "all"]
    assert rows["scan"] == (5, 2.0, 3.0, 4.0, 42.0, 102, 0)
    assert rows["verify"] == (5, 0.5, 0.5, 0.5, 30.0, 200, 1)
    # per run: walls 1.5..5.5, the larger RSS, faults 300..304
    assert rows["all"] == (5, 2.5, 3.5, 4.5, 42.0, 302, 1)



def test_cost_table_on_two_runs():
    runs = [{"a": (1.0, 1024, 10, False)}, {"a": (3.0, 4096, 30, False)}]
    rows = command_costs.cost_table(runs)
    assert rows == [("a", 2, 1.5, 2.0, 2.5, 2.5, 20, 0), ("all", 2, 1.5, 2.0, 2.5, 2.5, 20, 0)]

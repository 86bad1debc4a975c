"""tools/ab_pairs.py end to end, on one small rep."""

import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

SRC = str(TOOL.parent.parent / "src")


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    """Every workload's command lines at matrix size 8 and two items, so one rep runs quickly."""
    for name in ("model-n100", "project-io", "funmap-k16"):
        small = dataclasses.replace(ab_pairs.WORKLOADS[name], size=8, items=2)
        monkeypatch.setitem(ab_pairs.WORKLOADS, name, small)


def test_one_rep_at_n8_reports_every_pair(capsys):
    assert ab_pairs.main([SRC, SRC, "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "model-n100 call time", "model-n100 seconds=",
        "project-io call time",
        "funmap-k16 call time", "funmap-k16 seconds="]
    for line in lines:
        found = re.search(r"median new/base (\S+) \(quartiles (\S+)-(\S+)\), "
                          r"new faster in (\d+) of (\d+) pairs", line)
        assert found, line
        q1, median, q3 = (float(found.group(i)) for i in (2, 1, 3))
        assert 0 < q1 <= median <= q3
        items = ab_pairs.WORKLOADS[line.split()[0]].items
        assert int(found.group(4)) <= int(found.group(5)) == items


def test_a_failing_call_exits_1(tmp_path, capsys):
    # A tree without a biorth package fails its warm-up call.
    assert ab_pairs.main([str(tmp_path), SRC, "--reps", "1"]) == 1
    assert "failed" in capsys.readouterr().err

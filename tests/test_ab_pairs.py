"""tools/ab_pairs.py end to end, on one small rep."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

SRC = str(TOOL.parent.parent / "src")


def test_one_rep_at_n8_reports_every_pair(capsys):
    assert ab_pairs.main([SRC, SRC, "--reps", "1", "--n", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["call time", "seconds="]
    items = ab_pairs.WORKLOADS["model-n100"].items
    for line in lines:
        found = re.search(r"median new/base (\S+) \(quartiles (\S+)-(\S+)\), "
                          r"new faster in (\d+) of (\d+) pairs", line)
        assert found, line
        q1, median, q3 = (float(found.group(i)) for i in (2, 1, 3))
        assert 0 < q1 <= median <= q3
        assert int(found.group(4)) <= int(found.group(5)) == items


def test_a_failing_call_exits_1(tmp_path, capsys):
    # A tree without a biorth package fails its warm-up call.
    assert ab_pairs.main([str(tmp_path), SRC, "--reps", "1", "--n", "8"]) == 1
    assert "failed" in capsys.readouterr().err

"""tools/ab_pairs.py end to end, on one small rep."""

import importlib.util
import os
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
    assert [line.split(":")[0] for line in lines] == [
        "model-n100 call time", "model-n100 seconds=",
        "funmap-k16 call time", "funmap-k16 seconds="]
    for line in lines:
        found = re.search(r"median new/base (\S+) \(quartiles (\S+)-(\S+)\), "
                          r"new faster in (\d+) of (\d+) pairs", line)
        assert found, line
        q1, median, q3 = (float(found.group(i)) for i in (2, 1, 3))
        assert 0 < q1 <= median <= q3
        items = ab_pairs.WORKLOADS[line.split()[0]].items
        assert int(found.group(4)) <= int(found.group(5)) == items


def test_n_sets_only_the_model_size(tmp_path):
    lines = ab_pairs.command_lines(8, 1, str(tmp_path))
    model, funmap = lines["model-n100"], lines["funmap-k16"]
    assert len(model) == 8 and len(funmap) == 16
    assert all(argv[argv.index("--n") + 1] == "8" for argv in model)
    assert all(argv[0] == "funmap" and "--n" not in argv for argv in funmap)
    assert all(os.path.exists(argv[argv.index("--a") + 1]) for argv in funmap)


def test_a_failing_call_exits_1(tmp_path, capsys):
    # A tree without a biorth package fails its warm-up call.
    assert ab_pairs.main([str(tmp_path), SRC, "--reps", "1", "--n", "8"]) == 1
    assert "failed" in capsys.readouterr().err

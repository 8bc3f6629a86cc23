"""tools/numeric_diff.py, run as a script on two small synthetic trees."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "numeric_diff.py"


def _diff(base, this):
    out = subprocess.run([sys.executable, str(TOOL), str(base), str(this)], capture_output=True, text=True)
    return out.returncode, out.stdout.splitlines()


def _tree(root, summary, trajectory_rows):
    run = root / "out" / "entangle"
    run.mkdir(parents=True)
    (run / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    rows = "".join(",".join("%.9g" % x for x in row) + "\n" for row in trajectory_rows)
    (run / "trajectory.csv").write_text("t_ns,Pg_A,flux\n" + rows)
    (root / "exit_code").write_text("0\n")
    (root / "stderr").write_text("photonlink 0.1.0 scenario=entangle seed=1\n")


SUMMARY = {"state_fidelity": 0.7906942861003762, "rows": [{"value": 0.77, "ccnr": 1.59}]}
ROWS = [(-95.0, 0.0, 0.0), (-94.0, 1e-9, 2.5e-7), (-93.0, 3e-9, 4.0e-7)]


def test_identical_trees_report_nothing(tmp_path):
    _tree(tmp_path / "base", SUMMARY, ROWS)
    shutil.copytree(tmp_path / "base", tmp_path / "this")
    assert _diff(tmp_path / "base", tmp_path / "this") == (0, [])


def test_moved_numbers_report_their_largest_change_and_where(tmp_path):
    _tree(tmp_path / "base", SUMMARY, ROWS)
    moved = {**SUMMARY, "rows": [{"value": 0.77, "ccnr": 1.59 + 3e-5}]}
    _tree(tmp_path / "this", moved, [ROWS[0], (-94.0, 2e-9, 2.5e-7), (-93.0, 3e-9, 4.5e-7)])
    code, lines = _diff(tmp_path / "base", tmp_path / "this")
    assert code == 1 and len(lines) == 2
    summary, csv = lines
    assert csv.startswith("out/entangle/trajectory.csv: largest change 5e-08 at line 4 column flux")
    assert csv.endswith("; nothing else differs")
    assert summary.startswith("out/entangle/summary.json: largest change 3e-05 at rows[0].ccnr")
    assert summary.endswith("; nothing else differs")


def test_removed_key_is_a_structural_change(tmp_path):
    _tree(tmp_path / "base", SUMMARY, ROWS)
    _tree(tmp_path / "this", {"rows": SUMMARY["rows"]}, ROWS)
    (tmp_path / "this" / "stderr").write_text("photonlink 0.1.1 scenario=entangle seed=1\n")
    (tmp_path / "this" / "extra.json").write_text("{}\n")
    code, lines = _diff(tmp_path / "base", tmp_path / "this")
    assert code == 1
    assert lines == [
        f"extra.json: only in {tmp_path / 'this'}",
        "out/entangle/summary.json: no number changed; also differs: state_fidelity removed",
        "stderr: no number changed; also differs: line 1 text",
    ]

"""tools/compare_runs.py on stub trees, whose CLI prints its argv and the
path of its own source and writes one JSON file."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).parents[1] / "tools"

STUB_CLI = """\
import json, sys
from pathlib import Path
print(sys.argv[1:])
print(__file__)
out = Path(sys.argv[2])
out.mkdir()
(out / "result.json").write_text(json.dumps({"value": VALUE}))
"""


@pytest.fixture
def compare_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import compare_runs

    return compare_runs


def _stub_tree(root, value):
    package = root / "src" / "photonlink"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI.replace("VALUE", repr(value)))
    return root


def test_argvs_hold_the_benchmark_argvs_at_both_seeds(compare_runs):
    from perfbench import workloads

    assert len(compare_runs.ARGVS) == 22
    for name in workloads.NAMES:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            assert workloads.argv(name, seed) in compare_runs.ARGVS


def _compare(compare_runs, monkeypatch, tmp_path, base_value, this_value):
    base = _stub_tree(tmp_path / "base-tree", base_value)
    monkeypatch.setattr(compare_runs, "ROOT", _stub_tree(tmp_path / "this-tree", this_value))
    monkeypatch.setattr(compare_runs, "ARGVS", [["--scenario", "qpt"]])
    return compare_runs.main([str(base), str(tmp_path / "work")])


def test_identical_stub_trees_report_nothing(compare_runs, monkeypatch, tmp_path, capsys):
    assert _compare(compare_runs, monkeypatch, tmp_path, 0.25, 0.25) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "base 0: exit 0: --scenario qpt",
        "this 0: exit 0: --scenario qpt",
        f"no difference ({tmp_path / 'work'})",
    ]
    for side in ("base", "this"):
        run = tmp_path / "work" / side / "0"
        assert (run / "stdout").read_text() == (
            "['--out', 'out', '--scenario', 'qpt']\n<tree>/src/photonlink/cli.py\n"
        )
        assert (run / "exit_code").read_text() == "0\n"


def test_a_moved_number_reports_only_its_file(compare_runs, monkeypatch, tmp_path, capsys):
    assert _compare(compare_runs, monkeypatch, tmp_path, 0.25, 0.75) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2:] == [
        "0/out/result.json: largest change 0.5 at value (0.25 -> 0.75); nothing else differs",
    ]
    assert captured.err == f"differences found ({tmp_path / 'work'})\n"


def test_a_base_tree_without_the_package_exits_2(tmp_path):
    tool = [sys.executable, str(TOOLS / "compare_runs.py")]
    for argv in ([str(tmp_path)], [], [str(TOOLS.parent), str(tmp_path), "extra"]):
        done = subprocess.run([*tool, *argv], capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr.startswith("usage: compare_runs.py BASE_TREE [WORK_DIR]")
        assert done.stdout == ""
    assert not any(tmp_path.iterdir())

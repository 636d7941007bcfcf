"""Smoke tests for the reproduction scripts, each run as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gdag_lab.catalog import bell_gdag

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _run_script(name: str, *args: str) -> str:
    proc = _script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_census_prints_the_table():
    assert _run_script("run_census.py", "--max-n", "4") == (
        "n,total,condition_holds,survivors\n"
        "1,2,2,0\n"
        "2,7,7,0\n"
        "3,40,40,0\n"
        "4,420,419,1\n"
    )


@pytest.mark.parametrize("max_n", ["0", "7"])
def test_run_census_size_guard_exits_2(max_n):
    proc = _script("run_census.py", "--max-n", max_n)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: census supports 1 <= n <= 6\n"


def test_derive_entropic_cones_on_a_graph_file(tmp_path):
    gp = tmp_path / "bell.json"
    gp.write_text(bell_gdag().to_json())
    out = _run_script("derive_entropic_cones.py", str(gp))
    assert out.startswith(f"== {gp} (")
    assert "  classical cone: 17 rows\n" in out
    assert "  independence cone: 17 rows\n" in out
    assert out.endswith("  cones coincide\n")


@pytest.mark.parametrize(
    "graph_text, message",
    [
        (
            '{"nodes": [{"id": "A", "kind": "observed"}], "edges": [["A", "B"]]}',
            "error: edge ('A', 'B') references unknown node\n",
        ),
        (None, "error: cannot read {path}: No such file or directory\n"),
    ],
    ids=["unknown-node", "missing-file"],
)
def test_derive_entropic_cones_bad_input_exits_2(tmp_path, graph_text, message):
    gp = tmp_path / "graph.json"
    if graph_text is not None:
        gp.write_text(graph_text)
    proc = _script("derive_entropic_cones.py", str(gp))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == message.format(path=gp)

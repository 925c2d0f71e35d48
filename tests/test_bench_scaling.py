"""Smoke test of tools/bench_scaling.py: its per-set worker still runs
against this checkout's netdea, counts the bundled set's pivots and records
a dense set's peak RSS, the small sets get the most processes, and a
checkout's src/netdea line count is read as wc -l reads it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_scaling.py"


def test_one_set_bundled():
    worker = subprocess.run([sys.executable, str(SCRIPT), "--one-set", "bundled"],
                            capture_output=True, text=True, check=True, timeout=60)
    result = json.loads(worker.stdout)
    assert "error" not in result
    assert result["n"] == 13
    assert len(result["times_s"]) == 3
    # Below 40 DMUs every LP is in multiplier form; the total is the one
    # test_bundled_full_analysis_pivot_count pins for the default config.
    assert all(kind.endswith(" multiplier") for kind in result["pivots"])
    assert sum(kind["pivots"] for kind in result["pivots"].values()) == 159


def test_one_set_half_on_frontier():
    worker = subprocess.run([sys.executable, str(SCRIPT), "--one-set", "half_on_frontier n=100"],
                            capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(worker.stdout)
    assert "error" not in result
    assert result["n"] == 100
    assert result["peak_rss_mb"] > 0


def _bench_scaling():
    spec = importlib.util.spec_from_file_location("bench_scaling", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_small_sets_get_more_processes():
    bench = _bench_scaling()
    assert [bench.processes(n) for n in (13, 99, 100, 999, 1000, 3000)] == [9, 9, 3, 3, 3, 1]


def test_src_lines_counts_the_netdea_modules(tmp_path):
    package = tmp_path / "src" / "netdea"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\nw = 4")  # no final newline: wc -l counts 1
    (package / "data" / "set.csv").write_text("id\nD1\n")
    (tmp_path / "src" / "other.py").write_text("v = 5\n")
    assert _bench_scaling().src_lines(tmp_path / "src") == 4

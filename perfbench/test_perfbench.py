"""Tests of the benchmark itself: seeded inputs, metric names, a smoke run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
LIBRARY = [w for w in generate.WORKLOADS if w != "cli-paper13"]


@pytest.mark.parametrize("workload", LIBRARY)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = generate.library_cases(workload, 7)
    assert first == generate.library_cases(workload, 7)
    assert first != generate.library_cases(workload, 8)


def test_cli_formats_are_seeded_blocks_of_all_three():
    formats = generate.cli_formats(3, 300)
    assert formats == generate.cli_formats(3, 300)
    for i in range(0, 300, 3):
        assert sorted(formats[i:i + 3]) == sorted(generate.FORMATS)


def test_metric_names_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(generate.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == table


def test_trace_without_lp_spans_fails_loudly():
    names = [n for n in spans.TARGETS if n not in ("lp_core.solve", "cli.main")]
    fake = [[name, 0, 1, None, 0, None] for name in names]
    with pytest.raises(spans.TraceError, match="lp_core.solve"):
        spans.layer_metrics(fake, {0: 2}, 1, through_cli=False)


def test_trace_with_wrong_lp_count_fails_loudly():
    fake = [[name, 0, 1, None, 0, None] for name in spans.TARGETS
            if name != "cli.main"]
    with pytest.raises(spans.TraceError, match="expected 6"):
        spans.layer_metrics(fake, {0: 2}, 1, through_cli=False)


@pytest.mark.parametrize("workload,trace", [("cli-paper13", 0), ("batch-small", 0),
                                            ("sparse-n100", 1)])
def test_smoke_run_reports_every_metric(workload, trace):
    pytest.importorskip("scipy")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table

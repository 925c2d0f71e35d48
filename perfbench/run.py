"""netdea benchmark: one command runs a workload, checks it and reports.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It measures the checkout it lives in: netdea comes from that checkout's
``src/``, never from an installed copy, and nothing is built. One
operation takes one dataset from CSV text to rendered reports
(``parse_dataset`` -> ``run_full_analysis`` -> ``build_report`` ->
``render_report`` in table, csv and json); on ``cli-paper13`` it is one
``netdea compare`` process. Load comes from one client in a closed loop.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see spans.py). Every output is checked
outside the timed region: CLI output against the seed commit's bytes,
scores against SciPy's HiGHS, overall = stage1 * stage2, overall <= CCR,
and bit-identical output wherever an operation repeats (every CLI run and
every traced run, which repeats all its operations). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric with its
unit, the failures and the machine. A fuller record, with every latency,
goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import generate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = SRC / "netdea" / "data" / "iims_2020_21.csv"
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "dmus_per_s": "DMU/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.process_ms": "ms",
    "cli.main_ms": "ms",
    "cli.startup_ms": "ms",
    "dataset_io.parse_ms": "ms",
    "dataset_io.render_ms": "ms",
    "dataset_io.bytes_in": "bytes",
    "dataset_io.bytes_out": "bytes",
    "models.relational_ms": "ms",
    "models.priority_ms": "ms",
    "models.ccr_ms": "ms",
    "models.calls": "count",
    "models.self_ms": "ms",
    "lp_core.solve_ms": "ms",
    "lp_core.lps": "count",
    "lp_core.pivots": "count",
    "lp_core.pivots_per_lp_p50": "count",
    "lp_core.pivots_per_lp_p90": "count",
    "lp_core.us_per_pivot": "us",
    "lp_core.rows_mean": "rows",
    "lp_core.non_optimal": "count",
    "lp_core.cells_updated": "cells",
    "lp_core.binding_row_share": "ratio",
    "analysis.report_ms": "ms",
    "trace.overhead_frac": "ratio",
}

#: Fresh interpreters started to time set-up, half before the measured
#: operations and half after them, so that a slow spell of the host at one
#: end does not set the median; setup_s is their median.
SETUP_PROBES = 10
#: Operations a CLI run needs at least, so that its p90 latency has ten
#: samples beyond it.
CLI_MIN_OPS = 102
#: op_p90_ms is printed, outside the result line, only from this many
#: operations up.
P90_MIN_OPS = 100
#: In batch-small every tenth dataset is checked against HiGHS.
HIGHS_EVERY = 10
SCORE_TOL = 1e-6
PRODUCT_TOL = 1e-6
DOMINANCE_TOL = 1e-9
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def write_inputs(args, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and describe the job."""
    if args.workload == "cli-paper13":
        cases = [{"path": str(BUNDLED), "priority": "second",
                  "text": BUNDLED.read_text(encoding="utf-8")}]
        formats = generate.cli_formats(args.seed, 3 * 400)
        min_ops = 3 if args.smoke else CLI_MIN_OPS
        warmup = None
    else:
        cases = []
        for i, case in enumerate(generate.library_cases(args.workload, args.seed,
                                                        args.smoke)):
            path = work / f"case{i:03d}.csv"
            path.write_text(case.csv_text, encoding="utf-8")
            cases.append({"path": str(path), "priority": case.priority,
                          "text": case.csv_text})
        formats = list(generate.FORMATS)
        min_ops = len(cases) if args.workload == "batch-small" else 1
        small = generate.library_cases(args.workload, args.seed, smoke=True)[0]
        warmup = [small.csv_text, small.priority]
    return {"workload": args.workload, "seconds": args.seconds,
            "bundled": str(BUNDLED),
            "trace": args.trace, "min_ops": min_ops, "formats": formats,
            "warmup": warmup,
            "cases": cases, "spans_path": str(OUT / f"spans-{args.workload}-"
                                              f"seed{args.seed}.jsonl")}


def setup_seconds(job, count: int) -> list:
    """Fresh interpreter to netdea imported and every input parsed."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC),
           *(c["path"] for c in job["cases"])]
    times = []
    for _ in range(count):
        start = time.monotonic_ns()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=60)
        times.append((int(done.stdout) - start) / 1e9)
    return times


def run_worker(job, work: Path) -> dict:
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: the worker exited {done.returncode}")
    return json.loads(done.stdout)


def _status_of(error: str) -> str:
    match = re.search(r"solver returned (\w+)", error)
    return match.group(1) if match else error.split(":", 1)[0]


def check(job, ops) -> tuple:
    """Check every output; return (reasons by case, failure records).

    A case with any reason counts all of its operations as failed.
    """
    import oracle

    bad = {}
    through_cli = job["workload"] == "cli-paper13"

    def flag(case, reason):
        bad.setdefault(case, []).append(reason)

    ok = [op for op in ops if "error" not in op]
    seen = {}
    for op in ok:
        key = (op["case"], op["format"])
        if seen.setdefault(key, op["digest"]) != op["digest"]:
            flag(op["case"], "outputs differ between repetitions")

    reports = {}
    if through_cli:
        golden = {fmt: (HERE / "golden" / f"compare.{fmt}").read_bytes().decode("utf-8")
                  for fmt in generate.FORMATS}
        for op in ok:
            if op["digest"] != hashlib.sha256(golden[op["format"]].encode()).hexdigest():
                flag(0, f"{op['format']} output differs from the seed commit's")
        reports[0] = golden["json"]
    else:
        for op in ok:
            reports.setdefault(op["case"], op["report"])

    for case, text in sorted(reports.items()):
        report = json.loads(text)
        ccr = {r["id"]: r["score"] for r in report["ccr"]}
        for r in report["relational"]:
            if abs(r["overall"] - r["stage1"] * r["stage2"]) > PRODUCT_TOL:
                flag(case, f"DMU {r['id']}: overall != stage1 * stage2")
            if r["overall"] > ccr[r["id"]] + DOMINANCE_TOL:
                flag(case, f"DMU {r['id']}: overall exceeds CCR")
        if job["workload"] == "batch-small" and case % HIGHS_EVERY:
            continue
        ids, X, Z, Y = oracle.read_csv(job["cases"][case]["text"])
        priority = job["cases"][case]["priority"]
        for r in report["relational"]:
            ref = oracle.dmu_scores(X, Z, Y, ids.index(r["id"]), priority)
            ours = dict(r, ccr=ccr[r["id"]])
            for key, value in ref.items():
                if abs(ours[key] - value) > SCORE_TOL:
                    flag(case, f"DMU {r['id']}: {key} {ours[key]!r} vs HiGHS {value!r}")

    failures = {}
    for op in ops:
        if "error" in op and op["case"] not in failures:
            record = {"case": op["case"], "dmu": op["dmu"],
                      "status": _status_of(op["error"]), "error": op["error"]}
            if op["dmu"] is not None:
                ids, X, Z, Y = oracle.read_csv(job["cases"][op["case"]]["text"])
                try:
                    oracle.dmu_scores(X, Z, Y, ids.index(op["dmu"]),
                                      job["cases"][op["case"]]["priority"])
                    record["highs"] = "optimal"
                except oracle.OracleError as exc:
                    record["highs"] = str(exc)
            failures[op["case"]] = record
    return bad, list(failures.values())


def machine_info(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    try:
        found = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": found["name"], "version": found["version"]}
    except (KeyError, TypeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            src_digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": commit, "src_sha256": src_digest.hexdigest(), "seed": seed,
    }


def end_to_end(result, setup) -> dict:
    lat_ms = [op["lat_ns"] / 1e6 for op in result["ops"]]
    dmus = sum(op["dmus"] for op in result["ops"])
    return {
        "dmus_per_s": dmus / result["wall_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def baseline_failed_frac(workload: str, seed: int) -> str:
    """failed_frac at the seed commit, from baseline.json."""
    table = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    table = table["failed_frac"][workload]
    if str(seed) in table:
        return f"{table[str(seed)]:g} for this seed"
    return f"{statistics.mean(table.values()):g} averaged over {len(table)} seeds"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netdea" / "__init__.py").is_file():
        print(f"perfbench: no netdea sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        job = write_inputs(args, work)
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = setup_seconds(job, probes)
        result = run_worker(job, work)
        setup += setup_seconds(job, probes)
        bad, failures = check(job, result["ops"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    failed = sum(1 for op in ops if "error" in op or op["case"] in bad)
    if args.trace:
        metrics, units = result["layers"], PER_LAYER
    else:
        metrics, units = end_to_end(result, setup), END_TO_END
    info = machine_info(args.seed)
    baseline = ("not kept for --smoke" if args.smoke
                else baseline_failed_frac(args.workload, args.seed))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + json.dumps(info))
    notes = {"lp_core.cells_updated": "computed: pivots x (rows+1) x (cols+rows+1)"}
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {metrics[name]:>16.6g} {unit}{note}")
    print(f"  {'failed_frac':28s} {failed / len(ops):>16.6g} ratio "
          f"({failed} of {len(ops)} operations; seed-commit baseline "
          f"{baseline})")
    if args.trace:
        share = metrics["lp_core.solve_ms"] / result["op_ms_traced"]
        print(f"  lp_core.solve_ms is {share:.1%} of a traced operation "
              f"({result['op_ms_traced']:.6g} ms)")
    else:
        if len(ops) >= P90_MIN_OPS:
            p90 = spans.quantile([op["lat_ns"] / 1e6 for op in ops], 90)
            print(f"  {'op_p90_ms':28s} {p90:>16.6g} ms  (not in BENCHMARK.json)")
        print(f"  samples: {len(ops)} operations, {len(setup)} set-up probes")
    for record in failures:
        print("failure: " + json.dumps(record))
    for case, reasons in sorted(bad.items()):
        print(f"check failed on case {case}: " + "; ".join(reasons[:5]))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "metrics": metrics,
              "units": units, "attempted": len(ops), "failed": failed,
              "failures": failures, "check_failures": bad,
              "baseline_failed_frac": baseline,
              "latencies_ns": [op["lat_ns"] for op in ops]}
    if not args.trace:
        record["setup_s_samples"] = setup
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": not bad, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

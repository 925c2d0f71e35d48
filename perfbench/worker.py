"""Runs one workload in a fresh interpreter and prints raw measurements.

Usage: python3 worker.py JOB_FILE

``run.py`` starts this script with a job file (JSON) naming the workload,
its input files and the run length; the worker prints one JSON object with
per-operation latencies, output digests and, in a traced run, the
per-layer metrics. netdea is imported from the ``src/`` directory of the
checkout this file lives in, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: compare processes (and in-process cli.main calls) behind the cli.* metrics
#: of a traced run.
CLI_REPS = 9
#: DMUs in the bundled dataset that the CLI runs score.
PAPER_DMUS = 13


def import_netdea():
    sys.path.insert(0, str(SRC))
    import netdea

    if not Path(netdea.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"netdea was imported from {netdea.__file__}, "
                         f"not from {SRC}")
    return netdea


def cli_env() -> dict:
    """The caller's environment with this checkout's src/ first on the path.

    Thread settings (OMP_NUM_THREADS and the like) pass through unchanged.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def digest(texts) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


class Workload:
    """The operations of one job: ``op(i)`` runs operation i and returns
    ``(dmus, outputs)``; an exception marks the operation failed."""

    def __init__(self, netdea, job):
        self.netdea = netdea
        self.bundled = job["bundled"]
        self.formats = job["formats"]
        self.cases = [(Path(c["path"]).read_text(encoding="utf-8"), c["priority"])
                      for c in job["cases"]]
        self.through_cli = job["workload"] == "cli-paper13"
        # A library pass covers every dataset once; a CLI pass is one block
        # of the three formats.
        self.pass_len = 3 if self.through_cli else len(self.cases)
        self.env = cli_env()

    def case_of(self, i: int) -> int:
        return i % len(self.cases)

    def library_op(self, i: int):
        return self.pipeline(*self.cases[self.case_of(i)])

    def pipeline(self, text: str, priority: str):
        nd = self.netdea
        data = nd.parse_dataset(text)
        cfg = nd.SolverConfig(stage_priority=nd.StagePriority(priority))
        relational, ccr = nd.run_full_analysis(data, cfg)
        report = nd.build_report(relational, ccr, cfg)
        return data.n, [nd.render_report(report, fmt) for fmt in self.formats]

    def cli_argv(self, i: int) -> list:
        return ["compare", "--data", self.bundled,
                "--format", self.formats[i % len(self.formats)]]

    def check_cli_import(self):
        """Fail unless a child interpreter imports netdea from this checkout."""
        code = "import netdea; print(netdea.__file__)"
        done = subprocess.run([sys.executable, "-c", code], env=self.env,
                              capture_output=True, text=True, check=True)
        if not Path(done.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"netdea compare would import {done.stdout.strip()}, "
                             f"not the sources under {SRC}")

    def process_op(self, i: int):
        """One ``netdea compare`` process on the bundled data, as a CLI user
        runs it."""
        done = subprocess.run([sys.executable, "-m", "netdea.cli", *self.cli_argv(i)],
                              env=self.env, capture_output=True, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"netdea compare exited {done.returncode}: "
                               f"{done.stderr.decode(errors='replace').strip()}")
        # Decoding keeps every byte, line endings included, for the golden check.
        return PAPER_DMUS, [done.stdout.decode("utf-8")]

    def main_op(self, i: int):
        """``cli.main`` in this process, for the traced CLI run."""
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.netdea.cli.main(self.cli_argv(i))
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        return PAPER_DMUS, [out.getvalue()]


def run_ops(work: Workload, op, seconds: float, min_ops: int = 1,
            count: int | None = None, recorder=None):
    """Run operations in a closed loop with one client.

    Without ``count``, whole passes run until ``seconds`` have passed and at
    least ``min_ops`` operations are done. Returns the wall time and one
    record per operation; outputs are kept and hashed after the clock stops.
    """
    records = []
    start = time.perf_counter_ns()
    i = 0
    while True:
        if recorder is not None:
            recorder.op = i
        t0 = time.perf_counter_ns()
        try:
            dmus, outputs = op(i)
            failure = None
        except Exception as exc:  # every failure is counted, none is fatal
            dmus, outputs, failure = 0, None, exc
        records.append((i, time.perf_counter_ns() - t0, dmus, outputs, failure))
        i += 1
        if count is not None:
            if i == count:
                break
        elif (i % work.pass_len == 0 and i >= min_ops
              and time.perf_counter_ns() - start >= seconds * 1e9):
            break
    return (time.perf_counter_ns() - start) / 1e9, records


def describe(work: Workload, records) -> list:
    out = []
    for i, lat_ns, dmus, outputs, failure in records:
        rec = {"case": work.case_of(i), "lat_ns": lat_ns, "dmus": dmus}
        if failure is None:
            rec["digest"] = digest(outputs)
            if work.through_cli:
                rec["format"], rec["report"] = work.formats[i % len(work.formats)], None
            else:
                # The json report carries every score at full precision.
                rec["format"], rec["report"] = None, outputs[-1]
        else:
            rec["error"] = f"{type(failure).__name__}: {failure}"
            rec["dmu"] = getattr(failure, "dmu_id", None)
        out.append(rec)
    return out


def cli_layer(work: Workload, reps: int) -> dict:
    """Median wall time of a ``compare`` process and of ``cli.main`` in
    process, both on the bundled data; their difference is start-up. Every
    workload measures this, so every traced run reports the CLI layer."""
    process, main = [], []
    for i in range(reps):
        for op, times in ((work.process_op, process), (work.main_op, main)):
            t0 = time.perf_counter_ns()
            op(i)
            times.append((time.perf_counter_ns() - t0) / 1e6)
    process.sort()
    main.sort()
    p, m = process[reps // 2], main[reps // 2]
    return {"cli.process_ms": p, "cli.main_ms": m, "cli.startup_ms": p - m}


def run(job) -> dict:
    netdea = import_netdea()
    import netdea.cli  # noqa: F401  (cli is not imported by the package)

    work = Workload(netdea, job)
    work.check_cli_import()
    if job["warmup"] is not None:
        # One small dataset through the whole path before any clock starts.
        work.pipeline(*job["warmup"])
    if not job["trace"]:
        op = work.process_op if work.through_cli else work.library_op
        wall, records = run_ops(work, op, job["seconds"], job["min_ops"])
        who = resource.RUSAGE_CHILDREN if work.through_cli else resource.RUSAGE_SELF
        return {"wall_s": wall, "ops": describe(work, records),
                "peak_rss_kb": resource.getrusage(who).ru_maxrss}

    import spans

    # The traced run: an untraced pass, then the same operations traced.
    # CLI operations run cli.main in process, where spans can be recorded.
    op = work.main_op if work.through_cli else work.library_op
    wall_plain, plain = run_ops(work, op, job["seconds"] / 2)
    recorder = spans.Recorder()
    recorder.install()
    try:
        wall_traced, traced = run_ops(work, op, 0, count=len(plain),
                                      recorder=recorder)
    finally:
        recorder.uninstall()
    recorder.write(job["spans_path"])
    ok_ops = {i: dmus for i, _, dmus, _, failure in traced if failure is None}
    layers = spans.layer_metrics(recorder.spans, ok_ops, len(traced),
                                 work.through_cli)
    layers.update(cli_layer(work, CLI_REPS))
    layers["trace.overhead_frac"] = wall_traced / wall_plain
    return {"layers": layers, "op_ms_traced": wall_traced * 1e3 / len(traced),
            "ops": describe(work, plain) + describe(work, traced)}


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    json.dump(run(job), sys.stdout)


if __name__ == "__main__":
    main()

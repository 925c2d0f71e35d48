"""Time run_full_analysis as n grows, and one CLI compare, on checkouts side by side.

Usage:
    python3 tools/bench_scaling.py --out FILE.json [--src LABEL=CHECKOUT ...]

Each ``--src`` names a checkout whose ``src/`` netdea is imported from, under
a label (default: this script's checkout, labelled with its directory name).
The inputs always come from this script's own checkout, and
``perfbench/generate.py`` is only imported, never changed:

* the bundled 13-DMU set;
* ``generate.dispersed(np.random.default_rng(0), n, 3, 1, 1)`` for
  n = 20, 30, 40, 50, 100, 200, 400 and 1000; the first three bracket the
  size from which models.py reduces the ratio rows and solves the unpinned
  LPs in envelopment form.

The checkouts take turns set by set, and the side that goes first
alternates from one set to the next, so host drift over the session lands
on every side alike. Each set is timed in a fresh process per checkout: it
is parsed afresh and solved by ``run_full_analysis`` under the default
config three times (once from n = 1000 up), and the best time counts. A run
that raises a netdea error is recorded with the error instead. Every LP's
pivots are summed by kind (relational, stage-priority, CCR) and form
(multiplier or envelopment); these counts repeat exactly and do not drift
with the host. One ``netdea compare`` process on the bundled set is timed
three times per checkout, the checkouts again taking turns. Time and pivot
exponents in n are fitted from n = 200 to 400 and from 400 to 1000.

Each checkout's result is stored under its label in the json file
``--out``; other labels already in that file are kept. The script records
numbers and checks nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import generate  # noqa: E402

SIZES = (20, 30, 40, 50, 100, 200, 400, 1000)
REPEATS = 3
#: From this many DMUs up a set is timed once: without the row reduction
#: of models._undominated one run takes minutes there.
ONCE_FROM = 1000
FITS = ((200, 400), (400, 1000))
SETS = ["bundled"] + [f"dispersed n={n}" for n in SIZES]


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


class PivotCounter:
    """Wraps models.solve_lp and sums each LP's pivots by kind and form. A
    multiplier LP has a variable per weight and one equality row, two for
    the pinned stage-priority LP; its envelopment dual has a row per weight
    and no equality row. The relational LP has a weight on every column of
    X, Z and Y, while CCR has none on Z."""

    def __init__(self, nd):
        self.solve_lp = nd.models.solve_lp
        self.weights = 0
        self.counts = {}

    def __call__(self, problem):
        sol = self.solve_lp(problem)
        equalities = problem.constraint_senses.count("=")
        if equalities == 2:
            kind = "stage-priority multiplier"
        else:
            form, weights = (("multiplier", problem.num_variables) if equalities
                             else ("envelopment", problem.num_constraints))
            model = "relational" if weights == self.weights else "CCR"
            kind = f"{model} {form}"
        lps, pivots = self.counts.get(kind, (0, 0))
        self.counts[kind] = (lps + 1, pivots + sol.iterations)
        return sol

    def report(self) -> dict:
        return {kind: {"lps": lps, "pivots": pivots, "pivots_per_lp": pivots / lps}
                for kind, (lps, pivots) in sorted(self.counts.items())}


def set_text(nd, name: str) -> str:
    if name == "bundled":
        return Path(nd.bundled_dataset_path()).read_text(encoding="utf-8")
    n = int(name.removeprefix("dispersed n="))
    return generate.to_csv(*generate.dispersed(np.random.default_rng(0), n, 3, 1, 1))


def time_set(src: Path, name: str) -> dict:
    """Time one set with netdea imported from src; run in a fresh process."""
    sys.path.insert(0, str(src))
    import netdea as nd

    if not Path(nd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"netdea was imported from {nd.__file__}, not from {src}")
    counter = nd.models.solve_lp = PivotCounter(nd)
    text = set_text(nd, name)
    times, error = [], None
    n = nd.parse_dataset(text).n
    for _ in range(1 if n >= ONCE_FROM else REPEATS):
        data = nd.parse_dataset(text)
        counter.weights, counter.counts = data.m + data.p + data.s, {}
        start = time.perf_counter()
        try:
            nd.run_full_analysis(data)
        except nd.NetdeaError as exc:
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if error:
            break
    result = {"name": name, "n": n, "best_s": min(times), "times_s": times,
              "pivots": counter.report()}
    if error:
        result["error"] = error
    return result


def time_cli(src: Path) -> float:
    """Seconds one netdea compare process takes on the bundled set."""
    bundled = src / "netdea" / "data" / "iims_2020_21.csv"
    argv = [sys.executable, "-m", "netdea.cli", "compare",
            "--data", str(bundled), "--format", "table"]
    start = time.perf_counter()
    subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(src)},
                   capture_output=True, check=True)
    return time.perf_counter() - start


def exponents(sets: list) -> list:
    by_n = {s["n"]: s for s in sets if "error" not in s}
    fits = []
    for small, large in FITS:
        if small in by_n and large in by_n:
            pivots = [sum(k["pivots"] for k in by_n[n]["pivots"].values())
                      for n in (small, large)]
            ratio = math.log(large / small)
            fits.append({
                "from_n": small, "to_n": large,
                "time": math.log(by_n[large]["best_s"] / by_n[small]["best_s"]) / ratio,
                "pivots": math.log(pivots[1] / pivots[0]) / ratio,
            })
    return fits


def parse_src(value: str) -> tuple:
    label, sep, path = value.partition("=")
    if not sep:
        path = value
        label = Path(path).resolve().name
    return label, (Path(path) / "src").resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="json file the results are stored in")
    parser.add_argument("--src", action="append", type=parse_src, metavar="LABEL=CHECKOUT",
                        help="checkout to time, under LABEL (repeatable; default: this one)")
    parser.add_argument("--one-set", help=argparse.SUPPRESS)  # the per-process worker
    args = parser.parse_args(argv)
    sides = args.src or [parse_src(str(ROOT))]
    if args.one_set:
        print(json.dumps(time_set(sides[0][1], args.one_set)))
        return 0
    if args.out is None:
        parser.error("--out is required")

    results = {label: {"machine": machine_info(), "sets": [], "compare_cli": {"times_s": []}}
               for label, _ in sides}
    for i, name in enumerate(SETS):
        for label, src in sides[::-1] if i % 2 else sides:
            worker = subprocess.run(
                [sys.executable, __file__, "--one-set", name, "--src", f"{label}={src.parent}"],
                capture_output=True, text=True, check=True)
            result = json.loads(worker.stdout)
            results[label]["sets"].append(result)
            pivots = sum(k["pivots"] for k in result["pivots"].values())
            print(f"{label} {name}: best {result['best_s']:.3f} s, pivots {pivots}"
                  + (f", {result['error']}" if "error" in result else ""), flush=True)
    for i in range(REPEATS):
        for label, src in sides[::-1] if i % 2 else sides:
            results[label]["compare_cli"]["times_s"].append(time_cli(src))
    for label, _ in sides:
        cli = results[label]["compare_cli"]
        cli["best_s"] = min(cli["times_s"])
        results[label]["exponents"] = exponents(results[label]["sets"])
        print(f"{label} netdea compare: best {cli['best_s']:.3f} s")

    stored = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    stored.update(results)
    args.out.write_text(json.dumps(stored, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

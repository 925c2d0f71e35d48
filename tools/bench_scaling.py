"""Time run_full_analysis as the number of DMUs grows, and one CLI compare.

Usage:
    python3 tools/bench_scaling.py --out FILE.json [--label NAME] [--src CHECKOUT]

netdea is imported from ``CHECKOUT/src`` (default: the checkout this script
lives in). The inputs always come from this script's own checkout, and
``perfbench/generate.py`` is only imported, never changed:

* the bundled 13-DMU set;
* ``generate.dispersed(np.random.default_rng(0), n, 3, 1, 1)`` for
  n = 20, 30, 40, 50, 100, 200 and 400; the first three bracket the size
  from which models.py solves the unpinned LPs in envelopment form.

Each set is parsed afresh and solved by ``run_full_analysis`` under the
default config three times; the best time counts. Every LP's pivots are
summed by kind (relational, stage-priority, CCR) and form (multiplier or
envelopment); these counts repeat exactly and do not drift with the host. One ``netdea compare`` process on
the bundled set is timed the same way. Time and pivot exponents in n are
fitted from n = 200 to 400.

The result is stored under ``--label`` (default: the checkout's directory
name) in the json file ``--out``; other labels already in that file are
kept, so a parent checkout and a change can be recorded side by side. The
script records numbers and checks nothing.
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

SIZES = (20, 30, 40, 50, 100, 200, 400)
REPEATS = 3


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


def time_set(nd, counter, name: str, text: str) -> dict:
    times = []
    for _ in range(REPEATS):
        data = nd.parse_dataset(text)
        counter.weights, counter.counts = data.m + data.p + data.s, {}
        start = time.perf_counter()
        nd.run_full_analysis(data)
        times.append(time.perf_counter() - start)
    pivots = counter.report()
    print(f"{name}: n {data.n}, best {min(times):.3f} s, "
          f"pivots {sum(k['pivots'] for k in pivots.values())}", flush=True)
    return {"name": name, "n": data.n, "best_s": min(times), "times_s": times,
            "pivots": pivots}


def time_cli(nd, src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "netdea.cli", "compare",
            "--data", str(nd.bundled_dataset_path()), "--format", "table"]
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, capture_output=True, check=True)
        times.append(time.perf_counter() - start)
    print(f"netdea compare: best {min(times):.3f} s", flush=True)
    return {"best_s": min(times), "times_s": times}


def exponent(small: float, large: float, ratio: float) -> float:
    return math.log(large / small) / math.log(ratio)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="json file the result is stored in")
    parser.add_argument("--label", help="key of the result in --out")
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ is imported (default: this one)")
    args = parser.parse_args(argv)
    src = (args.src / "src").resolve()
    sys.path.insert(0, str(src))
    import netdea as nd

    if not Path(nd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"netdea was imported from {nd.__file__}, not from {src}")
    counter = nd.models.solve_lp = PivotCounter(nd)
    sets = [time_set(nd, counter, "bundled",
                     Path(nd.bundled_dataset_path()).read_text(encoding="utf-8"))]
    for n in SIZES:
        X, Z, Y = generate.dispersed(np.random.default_rng(0), n, 3, 1, 1)
        sets.append(time_set(nd, counter, f"dispersed n={n}", generate.to_csv(X, Z, Y)))
    small, large = sets[-2], sets[-1]
    pivots = [sum(k["pivots"] for k in s["pivots"].values()) for s in (small, large)]
    ratio = large["n"] / small["n"]
    result = {
        "machine": machine_info(),
        "sets": sets,
        "compare_cli": time_cli(nd, src),
        "exponents": {
            "from_n": small["n"], "to_n": large["n"],
            "time": exponent(small["best_s"], large["best_s"], ratio),
            "pivots": exponent(*pivots, ratio),
        },
    }
    stored = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    stored[args.label or args.src.resolve().name] = result
    args.out.write_text(json.dumps(stored, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

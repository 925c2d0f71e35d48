"""Print a sha256 over every LP solve and rendered report of a fixed input set.

Usage:
    python3 tools/solve_digest.py [--src CHECKOUT]

Two checkouts whose solvers take the same pivots and round the same way
print the same digest; any change to a status, a pivot count, an objective,
solution or row-price bit, or a report byte changes it. Row prices, empty
unless a solve is optimal, are hashed because the envelopment form reads
its weights from them. Run it once with ``--src`` pointing at the parent
commit's checkout and once without, and compare.

Besides the total, each input group below gets its own digest, solve and
pivot count (the random LPs; the bundled set; ``sparse-n100``;
``dense-n100``; ``wide-n100``; the ``batch-small`` sets), so a change
meant to reach only some groups can show that the others kept every byte.
``tests/test_solve_digest.py`` pins the bundled, ``sparse-n100``,
``dense-n100`` and ``wide-n100`` lines through ``digest_library``.

netdea is imported from ``CHECKOUT/src`` (default: the checkout this script
lives in). The inputs always come from this script's own checkout, and
``perfbench/generate.py`` is only imported, never changed:

* seeded random LPs of all three senses, solved with ``solve_lp``;
* ``run_full_analysis`` under both stage priorities, every LP it solves,
  and each report the CLI prints from it (``compare``, and ``solve`` and
  ``rank`` for each ``--model``) in table, csv and json, on the bundled set,
  ``sparse-n100`` and ``dense-n100`` seed 1, ``wide-n100`` (the 5/3/3 set
  ``generate.dispersed(np.random.default_rng(0), 100, 5, 3, 3)``), and all
  100 ``batch-small`` seed-1 sets. A run that raises contributes the
  failing DMU's id and the type and message of the error it wraps, which
  do not depend on how ``DmuSolveError`` words its own message.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import generate  # noqa: E402

RANDOM_LPS = 1500
RANDOM_SEED = 20261020
LIBRARY_SEED = 1

#: render_report's (sections, include_rho, ranks_only) for each report the
#: CLI prints: compare, then solve and rank for --model both, relational, ccr.
CLI_REPORTS = [(("relational", "ccr"), True, False)] + [
    (sections, False, ranks_only) for ranks_only in (False, True)
    for sections in (("relational", "ccr"), ("relational",), ("ccr",))]


def random_lp(nd, rng):
    """1-9 variables, 0-39 rows of all senses, nonzero lower bounds on half
    of them; the rhs is left raw on 30%, so infeasible and unbounded LPs
    occur as well as optimal ones."""
    lp_core = nd.lp_core
    n, k = int(rng.integers(1, 10)), int(rng.integers(0, 40))
    A = rng.integers(-4, 5, size=(k, n)).astype(float)
    senses = rng.choice([lp_core.LESS_EQUAL, lp_core.EQUAL, lp_core.GREATER_EQUAL],
                        size=k, p=[0.6, 0.2, 0.2])
    lb = rng.normal(size=n) if rng.random() < 0.5 else np.zeros(n)
    if rng.random() < 0.7:
        gap = rng.uniform(0.0, 2.0, k)
        b = A @ (lb + rng.uniform(0.0, 2.0, n)) + gap * (
            (senses == lp_core.LESS_EQUAL) - 1.0 * (senses == lp_core.GREATER_EQUAL))
    else:
        b = rng.integers(-5, 6, size=k).astype(float)
    return nd.LinearProgram(rng.integers(-4, 5, size=n).astype(float), A,
                            tuple(senses), b, lb)


class Tally:
    """A sha256 with the solves and pivots it has taken in."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.solves = self.pivots = 0

    def line(self) -> str:
        return f"solves {self.solves}, pivots {self.pivots}, {self.sha.hexdigest()}"


class Digest:
    """The total tally and one per input group; every part goes into the
    total and into the tally of the group named last by start()."""

    def __init__(self):
        self.total = Tally()
        self.groups = {}
        self.failures = 0

    def start(self, group: str):
        self.group = self.groups.setdefault(group, Tally())

    def _update(self, part: bytes):
        for tally in (self.total, self.group):
            tally.sha.update(part + b"\0")

    def solve(self, sol):
        for tally in (self.total, self.group):
            tally.solves += 1
            tally.pivots += sol.iterations
        for part in (sol.status.value.encode(), str(sol.iterations).encode(),
                     np.float64(sol.objective_value).tobytes(),
                     sol.variable_values.tobytes(), sol.row_prices.tobytes()):
            self._update(part)

    def text(self, text: str):
        self._update(text.encode())


def library_inputs(nd):
    """(group, name, csv text) of each dataset, in a fixed order."""
    yield "bundled", "bundled", Path(nd.bundled_dataset_path()).read_text(encoding="utf-8")
    for workload in ("sparse-n100", "dense-n100"):
        yield workload, workload, generate.library_cases(workload, LIBRARY_SEED)[0].csv_text
    wide = generate.dispersed(np.random.default_rng(0), 100, 5, 3, 3)
    yield "wide-n100", "wide-n100", generate.to_csv(*wide)
    for i, case in enumerate(generate.library_cases("batch-small", LIBRARY_SEED)):
        yield "batch-small", f"batch-small set {i}", case.csv_text


def digest_library(nd, out: Digest, inputs):
    """Digest, for each (group, name, csv text) of inputs, run_full_analysis
    under both priorities, every LP it solves and its CLI_REPORTS in each
    format."""
    solve_lp = nd.models.solve_lp

    def recording_solve(problem):
        sol = solve_lp(problem)
        out.solve(sol)
        return sol

    nd.models.solve_lp = recording_solve
    try:
        for group, name, text in inputs:
            out.start(group)
            data = nd.parse_dataset(text)
            for priority in nd.StagePriority:
                cfg = nd.SolverConfig(stage_priority=priority)
                try:
                    relational, ccr = nd.run_full_analysis(data, cfg)
                except nd.NetdeaError as exc:
                    out.failures += 1
                    cause = exc.__cause__
                    out.text(f"{exc.dmu_id}: {type(cause).__name__}: {cause}")
                    print(f"{name} {priority.value}: {type(exc).__name__}: {exc}",
                          file=sys.stderr)
                    continue
                report = nd.build_report(relational, ccr, cfg)
                for sections, include_rho, ranks_only in CLI_REPORTS:
                    for fmt in ("table", "csv", "json"):
                        out.text(nd.render_report(report, fmt, sections=sections,
                                                  include_rho=include_rho,
                                                  ranks_only=ranks_only))
    finally:
        nd.models.solve_lp = solve_lp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ is imported (default: this one)")
    args = parser.parse_args(argv)
    src = (args.src / "src").resolve()
    sys.path.insert(0, str(src))
    import netdea as nd

    if not Path(nd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"netdea was imported from {nd.__file__}, not from {src}")
    out = Digest()
    out.start("random LPs")
    rng = np.random.default_rng(RANDOM_SEED)
    statuses = Counter()
    for _ in range(RANDOM_LPS):
        sol = nd.solve_lp(random_lp(nd, rng))
        statuses[sol.status.value] += 1
        out.solve(sol)
    print("random LPs: " + ", ".join(f"{count} {status}"
                                     for status, count in sorted(statuses.items())))

    digest_library(nd, out, library_inputs(nd))
    for group, tally in out.groups.items():
        print(f"{group}: {tally.line()}")
    print(f"total: {out.total.line()}, failed runs {out.failures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

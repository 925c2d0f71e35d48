"""The bundled and n = 100 groups of tools/solve_digest.py, pinned. The
bundled line holds the x and row prices of every LP of the 13-DMU set,
solved in multiplier form with all its ratio rows, where the other
goldens hold only scores and reports. Only the n = 100 lines catch a
last-bit change from n = 40 up, where the rows are filtered and every LP
is solved in envelopment form. The 800 solves of sparse-n100 and
dense-n100 are 3 per DMU under each priority and 1 per DMU under each
stage of solve_stage_independent: no dual is solved again in multiplier
form, and each takes one simplex run, since every dual takes its start
and skips phase 1, where the bundled set's multiplier LPs run it.
wide-n100, a 5/3/3 set, walks two links to start its duals and keeps
many more rows; its one solve beyond 8 per DMU is D80's SECOND_STAGE
pinned LP, solved again in multiplier form after its dual ends in
numerical_failure."""

import importlib.util
from pathlib import Path

import netdea as nd
from netdea import lp_core

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"

PINNED = {
    "bundled": "solves 104, pivots 402, "
               "ded8672aebf3a7714aedf0d5c8cb619a99bfabc0f91f699b773063cd6ee739e3",
    "sparse-n100": "solves 800, pivots 7764, "
                   "fff943e011fc25e7795a2d38516ee39c6527564a3f4d02bb1fd2c13ea51db020",
    "dense-n100": "solves 800, pivots 4193, "
                  "fd9d244711c59037b2d9d24c9c7a012b4fe5d11396a10e210015aa9df1fbc0c8",
    "wide-n100": "solves 801, pivots 31443, "
                 "7b520407a7fd1492b09d83e104fda7baedfdc8ecef90470b0efd78067e21f674",
}


def test_pinned_groups_keep_their_digests(monkeypatch):
    """Every solve's status, pivots and bits, every byte of the CLI's
    reports under both priorities and every solve_stage_independent score
    of the bundled set, sparse-n100 and dense-n100 seed 1 and wide-n100. A
    change that moves the pivot path updates these values under the
    ROADMAP golden policy and says so in CHANGES.md."""
    spec = importlib.util.spec_from_file_location("solve_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    out = digest.Digest()
    iterate, runs = lp_core._iterate, []
    monkeypatch.setattr(lp_core, "_iterate",
                        lambda *args: runs.append(out.group) or iterate(*args))
    digest.digest_library(nd, out, (case for case in digest.library_inputs(nd)
                                    if case[0] in PINNED))
    assert out.failures == 0
    for group in ("sparse-n100", "dense-n100"):
        assert runs.count(out.groups[group]) == out.groups[group].solves
    # D80's failed dual, then its multiplier LP's phase 1 and phase 2
    assert runs.count(out.groups["wide-n100"]) == out.groups["wide-n100"].solves + 1
    assert {group: tally.line() for group, tally in out.groups.items()} == PINNED

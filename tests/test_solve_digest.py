"""The n = 100 groups of tools/solve_digest.py, pinned: every other golden
is the 13-DMU bundled set, which is solved in multiplier form with all its
ratio rows, so only these catch a last-bit change from n = 40 up, where
the rows are filtered and every LP is solved in envelopment form. 600
solves are 3 per DMU under each priority: no dual is solved again in
multiplier form. One simplex run per solve: every dual takes its start and
skips phase 1."""

import importlib.util
from pathlib import Path

import netdea as nd
from netdea import lp_core

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"

PINNED = {
    "sparse-n100": "solves 600, pivots 6454, "
                   "76032884e0114d83fda8bc2441934b020cb956b350afc1ceeee3a77b1a14652b",
    "dense-n100": "solves 600, pivots 3505, "
                  "88e07cc41bcde428bfdb2f377f1ec5b26238156860b2886c562e1bdea4973f96",
}


def test_n100_groups_keep_their_digests(monkeypatch):
    """Every solve's status, pivots and bits and every report byte of
    sparse-n100 and dense-n100 seed 1 under both priorities. A change that
    moves the pivot path updates these values under the ROADMAP golden
    policy and says so in CHANGES.md."""
    spec = importlib.util.spec_from_file_location("solve_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    iterate, runs = lp_core._iterate, []
    monkeypatch.setattr(lp_core, "_iterate", lambda *args: runs.append(1) or iterate(*args))
    out = digest.Digest()
    digest.digest_library(nd, out, (case for case in digest.library_inputs(nd)
                                    if case[0] in PINNED))
    assert out.failures == 0
    assert len(runs) == out.total.solves
    assert {group: tally.line() for group, tally in out.groups.items()} == PINNED

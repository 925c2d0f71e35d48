"""The bundled and n = 100 groups of tools/solve_digest.py, pinned. The
bundled line holds the x and row prices of every LP of the 13-DMU set,
solved in multiplier form with all its ratio rows, where the other
goldens hold only scores and reports. Only the n = 100 lines catch a
last-bit change from n = 40 up, where the rows are filtered and every LP
is solved in envelopment form. Their 600 solves are 3 per DMU under each
priority: no dual is solved again in multiplier form. One simplex run per
n = 100 solve: every dual takes its start and skips phase 1, where the
bundled set's multiplier LPs run it."""

import importlib.util
from pathlib import Path

import netdea as nd
from netdea import lp_core

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"

PINNED = {
    "bundled": "solves 78, pivots 328, "
               "1060ddeb478c65d8b08996b24a4c50d8a23d7f9d981b35e01841a3fdb036594c",
    "sparse-n100": "solves 600, pivots 6454, "
                   "76032884e0114d83fda8bc2441934b020cb956b350afc1ceeee3a77b1a14652b",
    "dense-n100": "solves 600, pivots 3505, "
                  "88e07cc41bcde428bfdb2f377f1ec5b26238156860b2886c562e1bdea4973f96",
}


def test_pinned_groups_keep_their_digests(monkeypatch):
    """Every solve's status, pivots and bits and every report byte of the
    bundled set and sparse-n100 and dense-n100 seed 1 under both
    priorities. A change that moves the pivot path updates these values
    under the ROADMAP golden policy and says so in CHANGES.md."""
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
    assert {group: tally.line() for group, tally in out.groups.items()} == PINNED

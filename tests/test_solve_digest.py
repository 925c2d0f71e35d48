"""The bundled and n = 100 groups of tools/solve_digest.py, pinned. The
bundled line holds the x and row prices of every LP of the 13-DMU set,
solved in multiplier form with all its ratio rows, where the other
goldens hold only scores and reports. Only the n = 100 lines catch a
last-bit change from n = 40 up, where the rows are filtered and every LP
is solved in envelopment form. The 600 solves of sparse-n100 and
dense-n100 are 3 per DMU under each priority: no dual is solved again in
multiplier form, and each takes one simplex run, since every dual takes
its start and skips phase 1, where the bundled set's multiplier LPs run
it. wide-n100, a 5/3/3 set, walks two links to start its duals and keeps
many more rows; its 601st solve is D80's SECOND_STAGE pinned LP, solved
again in multiplier form after its dual ends in numerical_failure."""

import importlib.util
from pathlib import Path

import netdea as nd
from netdea import lp_core

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"

PINNED = {
    "bundled": "solves 78, pivots 328, "
               "7582484435e6432b783560b6d980c6d92780fe3097f93f9307eb13e48336421b",
    "sparse-n100": "solves 600, pivots 6454, "
                   "d6b2210fd4a05b2853e18f99b10fe9248d25b8e7075edf8ca33fea3f0371c0f4",
    "dense-n100": "solves 600, pivots 3505, "
                  "2b4ed9000ba78043b3d9c99b2e816539eb1a180af66a0f68bbc05fd4100e62a0",
    "wide-n100": "solves 601, pivots 27364, "
                 "ea12a880ba3c446bae4eab267e76e20926059ee712672c55fdb347b1b0badda8",
}


def test_pinned_groups_keep_their_digests(monkeypatch):
    """Every solve's status, pivots and bits and every byte of the CLI's
    reports of the bundled set, sparse-n100 and dense-n100 seed 1 and
    wide-n100 under both priorities. A change that moves the pivot path updates these values
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
    # D80's failed dual, then its multiplier LP's phase 1 and phase 2
    assert runs.count(out.groups["wide-n100"]) == out.groups["wide-n100"].solves + 1
    assert {group: tally.line() for group, tally in out.groups.items()} == PINNED

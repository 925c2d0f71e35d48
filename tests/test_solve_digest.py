"""The n = 100 groups of tools/solve_digest.py, pinned: every other golden
is the 13-DMU bundled set, which is solved in multiplier form with all its
ratio rows, so only these catch a last-bit change from n = 40 up, where
the rows are filtered and the unpinned LPs are solved in envelopment form."""

import importlib.util
from pathlib import Path

import netdea as nd

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"

PINNED = {
    "sparse-n100": "solves 600, pivots 13500, "
                   "f9e01ec16f5924cdca5fe03fed999689d2aa539b8c753f14c1539024d8749cfb",
    "dense-n100": "solves 600, pivots 4594, "
                  "94572f91bbc594390de0bae1cc724e28cbf3793e14306373dec527c077de2379",
}


def test_n100_groups_keep_their_digests():
    """Every solve's status, pivots and bits and every report byte of
    sparse-n100 and dense-n100 seed 1 under both priorities. A change that
    moves the pivot path updates these values under the ROADMAP golden
    policy and says so in CHANGES.md."""
    spec = importlib.util.spec_from_file_location("solve_digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    out = digest.Digest()
    digest.digest_library(nd, out, (case for case in digest.library_inputs(nd)
                                    if case[0] in PINNED))
    assert out.failures == 0
    assert {group: tally.line() for group, tally in out.groups.items()} == PINNED

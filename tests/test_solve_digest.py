"""The n = 100 groups of tools/solve_digest.py, pinned: every other golden
is the 13-DMU bundled set, which is solved in multiplier form with all its
ratio rows, so only these catch a last-bit change from n = 40 up, where
the rows are filtered and every LP is solved in envelopment form. 600
solves are 3 per DMU under each priority: no dual is solved again in
multiplier form."""

import importlib.util
from pathlib import Path

import netdea as nd

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"

PINNED = {
    "sparse-n100": "solves 600, pivots 9787, "
                   "5d388bfb05ce1b6f13a4f7abf7388e8e1d09983087e9a2cb0b8640eec742350e",
    "dense-n100": "solves 600, pivots 4891, "
                  "145e23a63d18bad6055e803a235be503a0938ae00bd7dcf94c45fe276551e644",
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

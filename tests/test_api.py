"""The package root exports exactly the names that the README's "Library
use" section lists, one bullet per name."""

import re
from pathlib import Path

import netdea

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return sorted(re.findall(r"^- `(\w+)`", section, flags=re.M))


def test_root_exports_exactly_the_documented_names():
    documented = documented_names()
    assert sorted(netdea.__all__) == documented
    namespace = {}
    exec("from netdea import *", namespace)
    assert [name for name in documented if name not in namespace] == []

"""The package root exports exactly the names that the README's "Library
use" section lists, one bullet per name, the README names every
SolverConfig field, and its library example runs."""

import contextlib
import dataclasses
import io
import re
from pathlib import Path

import netdea

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def documented_names():
    return sorted(re.findall(r"^- `(\w+)`", library_section(), flags=re.M))


def test_root_exports_exactly_the_documented_names():
    documented = documented_names()
    assert sorted(netdea.__all__) == documented
    namespace = {}
    exec("from netdea import *", namespace)
    assert [name for name in documented if name not in namespace] == []


def test_readme_lists_the_solver_config_fields():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"`SolverConfig` holds the solver settings \(([^)]*)\)",
                       text).group(1)
    assert re.findall(r"`(\w+)`", listed) == [
        field.name for field in dataclasses.fields(netdea.SolverConfig)
    ]


def test_readme_library_example_runs_on_the_bundled_dataset():
    example = re.search(r"```python\n(.*?)```", library_section(), flags=re.S).group(1)
    assert '"units.csv"' in example
    example = example.replace('"units.csv"', repr(netdea.bundled_dataset_path()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 14
    assert lines[0] == "D1: overall 0.4973 (rank 1)"
    assert lines[-1].startswith("spearman rho: 0.9175")

"""The README's "Library surface" section against what the package exports,
its sweep-configuration example against the config's fields, its sentence
on the search's constants against the solver's, and what importing the
package loads."""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import arrayloc
from arrayloc import solver
from arrayloc.harness import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _surface() -> dict[str, list[str]]:
    """Listed names per module, from the README's "Library surface" section."""
    text = README.read_text()
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    surface: dict[str, list[str]] = {}
    module = None
    for line in section.splitlines():
        heading = re.match(r"### `(arrayloc(?:\.\w+)?)`$", line)
        if heading:
            module = heading.group(1)
            surface[module] = []
        name = re.match(r"- `(\w+)` — ", line)
        if name:
            assert module is not None, f"name listed before any module: {line}"
            surface[module].append(name.group(1))
    return surface


def _exports() -> set[str]:
    return {
        name
        for name, value in vars(arrayloc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_every_listed_name_imports():
    surface = _surface()
    assert surface
    for module, names in surface.items():
        assert names, f"{module} lists no names"
        imported = importlib.import_module(module)
        for name in names:
            assert hasattr(imported, name), f"{module}.{name} is listed but missing"


def test_every_export_is_listed():
    listed = {name for names in _surface().values() for name in names}
    assert _exports() - listed == set()


def test_importing_arrayloc_loads_no_scipy():
    # NumPy is the one runtime dependency; SciPy serves only as a test oracle.
    # A fresh interpreter sees what the imports themselves load.
    script = (
        "import sys, arrayloc, arrayloc.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_sweep_configuration_example_lists_the_config_fields():
    # The README's example shows every ExperimentConfig field at its default;
    # for layout and solver it shows some fields, each at its default.
    section = README.read_text().split("\n## Sweep configuration\n", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    defaults = ExperimentConfig()
    assert example.keys() == {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name, value in example.items():
        if name in ("layout", "solver"):
            nested = getattr(defaults, name)
            assert value.keys() <= {f.name for f in dataclasses.fields(nested)}, name
            for key, default in value.items():
                assert default == getattr(nested, key), f"{name}.{key}"
        else:
            assert value == getattr(defaults, name), name


def test_readme_states_the_search_constants():
    # One README sentence gives the search's fixed settings; a change to any
    # of them in solver.py must change that sentence too.
    text = " ".join(README.read_text().split())
    sentence = re.search(r"The search is DE/rand/1/bin .*? generations\.", text)
    assert sentence, "README lacks the sentence on the search's constants"
    number = r"([0-9][0-9.e+-]*)"
    stated = {
        "DIFFERENTIAL_WEIGHT": rf"mutation scale F = {number}",
        "CROSSOVER_RATE": rf"crossover rate CR = {number}",
        "OFFSPRING_PER_PARENT": rf"breeding {number} offspring per",
        "STALL_DELTA": rf"δ = {number} of itself",
        "STALL_WINDOW": rf"window of {number} generations",
    }
    for name, pattern in stated.items():
        value = re.search(pattern, sentence.group(0))
        assert value, f"the sentence does not state {name}"
        assert float(value.group(1)) == getattr(solver, name), name

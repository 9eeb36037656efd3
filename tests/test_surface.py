"""The README's "Library surface" section against what the package exports,
its sweep-configuration example against the config's fields, its sentence
on the search's constants against the solver's, and what importing the
package loads."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import arrayloc
from arrayloc import harness, solver
from arrayloc.geometry import edge_budget
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


def test_readme_states_the_lockstep_groups():
    # The README's table of lockstep groups, and the budget it quotes, are
    # what the harness works out with the default solver.
    def number(cell: str) -> int:
        return int(cell.replace(",", ""))

    text = README.read_text()
    budget = re.search(r"connectivity 0\.9, ([0-9,]+) B\.", " ".join(text.split()))
    assert budget, "README lacks the lockstep budget"
    assert number(budget.group(1)) == solver.LOCKSTEP_WORKSPACE_BYTES
    rows = re.findall(r"^\| (\d+), ([0-9.]+) \| ([0-9,]+) \| (\d+) \| ([0-9,]+) \|$",
                      text, flags=re.MULTILINE)
    assert len(rows) == 5, "README lacks the table of lockstep groups"
    for n, c, per_row, trials, group in rows:
        n, c = int(n), float(c)
        cfg = ExperimentConfig(array_sizes=[n], connectivities=[c], trials=250)
        per_trial = solver._working_set_bytes(n, edge_budget(n, c), cfg.solver)
        assert number(per_row) * cfg.solver.rows_per_generation == per_trial, n
        assert int(trials) == harness._group_size(n, c, cfg), n
        assert number(group) == int(trials) * per_trial, n


def test_readme_quick_start_runs_as_printed(capsys):
    # The library example under "## Quick start", run as the README prints
    # it: noiseless ranges on 6 nodes recover the layout to well under 1 um.
    section = README.read_text().split("\n## Quick start\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-6


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is left out.
    for path in sorted((README.parent / "src" / "arrayloc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_no_private_name_is_an_orphan():
    # Every module-level private name in src/arrayloc is used somewhere in
    # src/ outside its own definition; a helper whose last caller went is
    # deleted with it.
    trees = [
        ast.parse(path.read_text())
        for path in sorted((README.parent / "src" / "arrayloc").glob("*.py"))
    ]

    def uses(node: ast.AST) -> Counter:
        """How often each name is read: as a name, an attribute or an import."""
        counts: Counter = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                counts[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                counts[sub.attr] += 1
            elif isinstance(sub, ast.ImportFrom):
                counts.update(alias.name for alias in sub.names)
        return counts

    everywhere = sum((uses(tree) for tree in trees), Counter())
    orphans = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            own = uses(node)
            orphans += [
                name for name in names
                if name.startswith("_") and not name.startswith("__")
                and everywhere[name] == own[name]
            ]
    assert orphans == []

"""Code that nothing calls is deleted.

Each module-level function and class of the package is referenced in the
package outside its own definition, a `stage_*` function (cli._run calls
those by name), or kept below with the reason it stays. Each method,
property included, that is not a dunder is named by some attribute access
in the package, or kept below.
"""

import ast
from pathlib import Path

import homeactivity

PACKAGE = Path(homeactivity.__file__).parent

# "module.name" or "module.Class.method" -> why it stays, though nothing in
# the package refers to it
KEPT = {
    "pipeline._model_format": "a target of the benchmark's tracer",
    "occupancy.active_at": "a target of the benchmark's tracer",
    "timeseries.butterworth_lowpass": "a target of the benchmark's tracer, and the oracle "
                                      "lowpass_for_log is held to",
    "simulate.write_script": "tests, demos and the benchmark build CLI inputs with it",
    "neural.save_bundle": "tests, demos and the benchmark build CLI inputs with it",
    "neural.make_default_bundle": "tests, demos and the benchmark build CLI inputs with it",
    "occupancy.locate": "the oracle TestContextSweep holds context_sweep to; demo 04 uses it",
    "labelling.label_window": "the one-window rule on raw names; windowize applies it to "
                              "names it canonicalized once; demo 06 and the tests call it",
    "simulate.DayData.derived_ticks": "the benchmark and the tests read a day's truth a tick "
                                      "at a time",
}


def _unreferenced(sources: dict) -> set:
    """"module.name" of each module-level def and class that no other
    top-level statement refers to: by its bare name in its own module, as
    `module.name`, or by `from .module import name`."""
    defined, used = {}, {}  # "m.n" -> its statement; statement -> the "m.n" it names
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{module}.{stmt.name}"] = stmt
            names = used.setdefault(stmt, set())
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(f"{module}.{node.id}")
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    names.add(f"{node.value.id}.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name, stmt in defined.items()
            if not any(name in names for other, names in used.items() if other is not stmt)}


def _unreferenced_methods(sources: dict) -> set:
    """"module.Class.name" of each def in a module-level class body, not a
    dunder, whose name no attribute access in any module uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    return {f"{module}.{cls.name}.{stmt.name}"
            for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for stmt in cls.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            if not (stmt.name.startswith("__") and stmt.name.endswith("__"))
            and stmt.name not in attributes}


def test_the_scan_sees_each_kind_of_reference():
    sources = {
        "a": "def used_here(): pass\nx = used_here()\n"
             "def by_attribute(): pass\ndef by_import(): pass\n"
             "def recursive(): return recursive()\nclass Unused: pass\n",
        "b": "from . import a\nfrom .a import by_import\na.by_attribute()\n"
             "def other(): return ''.join([])\n",
    }
    assert _unreferenced(sources) == {"a.recursive", "a.Unused", "b.other"}


def test_the_method_scan_sees_attribute_access():
    sources = {
        "a": "class C:\n    def __len__(self): return 0\n    def called(self): pass\n"
             "    @property\n    def read(self): return self.called()\n"
             "    def unused(self): pass\n",
        "b": "from .a import C\nx = C().read\n",
    }
    assert _unreferenced_methods(sources) == {"a.C.unused"}


def test_every_definition_is_referenced_exported_a_stage_or_kept():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    unreferenced = {name for name in _unreferenced(sources)
                    if not name.split(".")[1].startswith(("stage_", "__"))}
    assert unreferenced | _unreferenced_methods(sources) == set(KEPT)

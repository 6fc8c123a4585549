"""Dead-code guard: every definition in src/fourfold is named by the package itself.

A module-level function or class, or a method, that no other line of
src/fourfold names (the package's __init__.py re-exports do not count) is
reached only from outside the program, by tests or the benchmark.  Such a
name has to be on the allowlist below, with its reason, or be deleted.
Names are matched as identifiers in the syntax tree (a call, an attribute,
an import), not in comments or docstrings, and not per binding: a method
passes when any other definition's name is the same.  Dunder methods are
called by Python itself and are skipped.
"""

import ast
from pathlib import Path

import fourfold

SRC = Path(fourfold.__file__).resolve().parent

# qualified name (module.name or module.Class.method) -> why nothing in src names it
ALLOWED_UNNAMED = {
    "_pure.first_hit_on_shell": "perfbench's tracer wraps it; drop with ROADMAP item 1",
    "search.compiled_available": "perfbench records the backend; drop with ROADMAP item 1",
    "search.backend_name": "perfbench records the backend; drop with ROADMAP item 1",
}


def _definitions_and_names():
    definitions, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem
        if module != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            definitions[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        definitions[f"{module}.{node.name}.{member.name}"] = member.name
    return definitions, named


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_named_in_src():
    definitions, named = _definitions_and_names()
    unnamed = {
        qualname
        for qualname, name in definitions.items()
        if name not in named and not _is_dunder(name)
    }
    assert unnamed - ALLOWED_UNNAMED.keys() == set()


def test_allowlist_is_current():
    # an entry whose name src now uses, or whose definition is gone, is stale
    definitions, named = _definitions_and_names()
    for qualname in ALLOWED_UNNAMED:
        assert qualname in definitions, qualname
        assert definitions[qualname] not in named, qualname


def test_star_import_resolves_all():
    assert len(fourfold.__all__) == len(set(fourfold.__all__))
    namespace = {}
    exec("from fourfold import *", namespace)
    assert set(fourfold.__all__) <= namespace.keys()

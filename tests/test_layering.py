"""Import layering: lower packages never reach up into higher ones.

Parses every module under ``src/repro`` with :mod:`ast` (nothing is
imported) and checks the package edges the architecture promises:

- every ``repro`` import names a module that exists, so a deleted
  package (such as the retired threaded UDP endpoints) cannot be
  imported back; the asyncio wire plane is the one real-socket path;
- nothing under ``repro.core`` imports the service layer or anything
  built on it (``repro.service``, ``repro.wire``, ``repro.ha``,
  ``repro.tenancy``, ``repro.chaos``) or the array plane.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ABOVE_CORE = (
    "repro.service",
    "repro.wire",
    "repro.ha",
    "repro.tenancy",
    "repro.chaos",
    "repro.fastpath",
)

#: Known upward edges out of ``repro.core``, each with the ROADMAP item
#: that retires it.  ``core/config.py`` validates ``engine`` against
#: ``repro.fastpath.ENGINE_KINDS`` (ROADMAP item 15).
CORE_EXCEPTIONS = {("repro.core.config", "repro.fastpath")}


def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def is_module(name):
    path = SRC.joinpath(*name.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def within(name, package):
    return name == package or name.startswith(package + ".")


def imported_modules(path):
    """The ``repro`` modules ``path`` imports, at any depth.

    ``from pkg import name`` counts ``pkg.name`` too when that is a
    module rather than an attribute of ``pkg``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    package = module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = base + ("." + module if module else "")
            names.add(module)
            names.update(
                qualified
                for qualified in (module + "." + a.name for a in node.names)
                if is_module(qualified)
            )
    return {name for name in names if within(name, "repro")}


def modules():
    return sorted((SRC / "repro").rglob("*.py"))


def test_the_source_tree_is_found():
    assert any(module_name(p) == "repro.core.server" for p in modules())


def test_every_import_names_an_existing_module():
    missing = sorted(
        (module_name(path), name)
        for path in modules()
        for name in imported_modules(path)
        if not is_module(name)
    )
    assert missing == []


def test_core_does_not_import_upper_layers():
    edges = set()
    for path in modules():
        source = module_name(path)
        if not within(source, "repro.core"):
            continue
        for name in imported_modules(path):
            edges.update(
                (source, upper) for upper in ABOVE_CORE if within(name, upper)
            )
    assert edges == CORE_EXCEPTIONS

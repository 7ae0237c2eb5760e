"""Every public name of sqglab has a caller other than its own unit test.

A name listed in a module's ``__all__`` must be used somewhere in the
package, the demos, the acceptance suite or the benchmark: as a loaded
name, an attribute or an imported name, outside its own definition.  So
must every public method and property of a class listed there, as an
attribute.  Docstrings and the ``__all__`` lists themselves are strings
and never count.

Every class method the benchmark's tracer patches must be defined on its
class, so that deleting one fails here rather than in a traced run.
"""

import ast
import importlib
import weakref
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sqglab"
CALLERS = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
    + list((ROOT / "perfbench").glob("*.py"))
)


def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


TREES = {path: _parsed(path) for path in CALLERS}


def _uses(tree: ast.Module):
    """``(kind, name, line)`` of every name-like use in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield "attribute", node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield "import", alias.name, node.lineno


USES = {path: list(_uses(tree)) for path, tree in TREES.items()}


def _used(name: str, kinds: set[str], own: tuple[Path, int, int]) -> bool:
    """Whether ``name`` is used as one of ``kinds`` outside the lines ``own``."""
    own_path, first, last = own
    return any(
        kind in kinds and used == name
        and not (path == own_path and first <= line <= last)
        for path, uses in USES.items()
        for kind, used, line in uses
    )


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level definitions by name: functions, classes and assignments."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    return defs


def _public_members(cls: ast.ClassDef):
    """Public methods and properties of a class body (dataclass fields excluded)."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node


def _surface():
    """``(label, name, kinds, own)`` for every public name and class member."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = TREES[path]
        defs = _definitions(tree)
        for name in _exported(tree):
            node = defs[name]
            own = (path, node.lineno, node.end_lineno)
            yield f"{path.stem}.{name}", name, {"name", "attribute", "import"}, own
            if isinstance(node, ast.ClassDef):
                for member in _public_members(node):
                    own = (path, member.lineno, member.end_lineno)
                    yield (f"{path.stem}.{name}.{member.name}", member.name,
                           {"attribute"}, own)


SURFACE = list(_surface())


def test_the_guard_sees_the_package():
    labels = {label for label, *_ in SURFACE}
    assert {"runner.run_experiment", "spectral.SpectralField.mean_coefficient"} <= labels


def test_every_public_name_has_a_caller_beyond_its_unit_test():
    unused = [label for label, name, kinds, own in SURFACE if not _used(name, kinds, own)]
    assert unused == []


def test_the_root_package_exports_only_its_version():
    tree = _parsed(PACKAGE / "__init__.py")
    assert _exported(tree) in ([], ["__version__"])
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in tree.body)



def _traced_methods() -> tuple[tuple[str, str, str], ...]:
    """``METHODS`` of the benchmark's tracer, read without importing it."""
    for node in _parsed(ROOT / "perfbench" / "tracing.py").body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no METHODS")


@pytest.mark.parametrize("layer, cls_name, method", _traced_methods())
def test_every_traced_method_is_defined_on_its_class(layer, cls_name, method):
    # the tracer patches each one through ``cls.__dict__[method]``, so one
    # that is deleted or only inherited would stop every traced run
    cls = getattr(importlib.import_module(f"sqglab.{layer}"), cls_name)
    assert method in cls.__dict__


def _call_sites(*names: str):
    """``(module, innermost enclosing function or None)`` of every call in
    the package of a function or method named one of ``names``."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parsed(path)
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in names:
                    yield path.name, owner.get(id(node))


def test_every_random_field_is_drawn_in_one_place():
    # one owner of the Gaussian draw: a second one elsewhere would have to
    # be kept in step with it by hand
    assert set(_call_sites("standard_normal")) == {("sampling.py", "_weighted_field")}


def test_every_partition_is_built_by_its_lattice():
    # one builder of the ring system: the lattice's cached property, so
    # every route reads the one partition of its lattice
    assert set(_call_sites("DyadicPartition")) == {("spectral.py", "partition")}


def test_a_partition_holds_no_lattice():
    # the lattice holds its partition; a partition that held the lattice
    # back, strongly or weakly, would tie its life to the lattice's again
    spectral = importlib.import_module("sqglab.spectral")
    held = vars(spectral.FrequencyLattice(m=32, h_xi=0.25).partition).values()
    assert not any(isinstance(value, (spectral.FrequencyLattice, weakref.ReferenceType))
                   for value in held)


def test_every_occupied_box_is_read_by_the_field():
    # a field's box is read once, by SpectralField.occupied, and every pass
    # sized by it reads the property: a pass that scanned the array itself
    # would read the same field again
    sites = list(_call_sites("_occupied_columns", "_occupied_rows"))
    assert sites and set(sites) == {("spectral.py", "occupied")}


def test_no_function_takes_a_partition():
    # every route reads the rings of its own lattice (``lattice.partition``);
    # a partition passed beside a field could belong to another lattice
    takers = [
        f"{path.name}:{getattr(node, 'name', 'lambda')}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parsed(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg == "partition"
    ]
    assert takers == []

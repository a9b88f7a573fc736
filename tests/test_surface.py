"""The program's surface carries nothing only tests use, read with ``ast``.

Every public top-level function or class in ``src/beampower`` is referenced
outside its own definition by the program (``src/`` other than the package
``__init__``, which only re-exports) or by the benchmark (``perfbench/``),
every public plain class attribute is read there too, and no ``src/`` module
imports a name it never uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "beampower"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _program_files() -> list[Path]:
    return sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names(node: ast.AST) -> set[str]:
    """Every name ``node`` reads, as a name, an attribute, an imported name
    or a string (the benchmark patches entry points by attribute name)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _subcommands(tree: ast.Module) -> set[str]:
    """The ``X`` of each ``add_parser("X", ...)``; ``cli.main`` dispatches
    subcommand X to ``cmd_X``."""
    return {f"cmd_{call.args[0].value}" for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "add_parser" and call.args
            and isinstance(call.args[0], ast.Constant)}


def test_every_public_definition_has_a_caller_outside_tests():
    # (file, top-level statement index) -> the names that statement reads
    readers = {}
    for path in _program_files() + sorted((ROOT / "perfbench").glob("*.py")):
        for i, stmt in enumerate(_parse(path).body):
            readers[(path, i)] = _names(stmt)
    unused = []
    for path in _program_files():
        tree = _parse(path)
        dispatched = _subcommands(tree)
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("_") or name in dispatched:
                continue
            if not any(name in names for where, names in readers.items()
                       if where != (path, i)):
                unused.append(f"{path.name}: {name}")
    assert not unused, f"only tests use {unused}"


def _attribute_reads(tree: ast.AST) -> set[str]:
    """The ``X`` of each ``obj.X`` read and each ``getattr(obj, "X")``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            found.add(node.args[1].value)
    return found


def test_every_public_class_attribute_is_read():
    # An attribute read does not say whose attribute it is (``f.name`` reads a
    # dataclass field's name), so a read counts only in the module that
    # defines the class or in a top-level statement elsewhere that names the
    # class.  Dataclass fields (annotated) and methods are out of scope.
    trees = {path: _parse(path)
             for path in _program_files() + sorted((ROOT / "perfbench").glob("*.py"))}
    unread = []
    for path in _program_files():
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            readers = [stmt for where, tree in trees.items() for stmt in tree.body
                       if where == path or cls.name in _names(stmt)]
            for stmt in cls.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if (isinstance(target, ast.Name) and not target.id.startswith("_")
                            and not any(target.id in _attribute_reads(stmt)
                                        for stmt in readers)):
                        unread.append(f"{path.name}: {cls.name}.{target.id}")
    assert not unread, f"class attributes nothing reads: {unread}"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in _program_files():
        tree = _parse(path)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}: {bound}")
    assert not unused, f"imported and never used: {unused}"

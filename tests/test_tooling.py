"""Rules about the package's shape: it stays pure standard library (every
absolute import in ``src/involift`` names a standard-library module), it
has one report writer (no ``json.dumps(..., indent=...)`` beside
``cli._json_chunks``), it builds no 2^W permutation (group elements are
tableaux), no module imports a private name of another, and every name it
exports and every public method or property of its classes is used by the
package itself or by a script (a method only when read as an attribute),
so no public API exists only for the tests, and importing the CLI loads
neither ``dataclasses`` nor the introspection modules it pulls in, nor
``typing``."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "involift"


def _absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not foreign, sorted(foreign)


def test_reports_have_one_writer():
    indented = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert not indented, indented


def test_package_builds_no_permutation():
    # Perm stays defined in lifting.py as the tests' reference form; no module
    # imports or loads the name elsewhere, and lifting.py never calls it
    named, called = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func.value if isinstance(node.func, ast.Attribute) else node.func
                if isinstance(func, ast.Name) and func.id == "Perm":
                    called.append(f"{path.name}:{node.lineno}")
            loads = isinstance(node, ast.Name) and node.id == "Perm" and isinstance(node.ctx, ast.Load)
            imports = isinstance(node, ast.ImportFrom) and any(alias.name == "Perm" for alias in node.names)
            if (loads or imports) and path.name != "lifting.py":
                named.append(f"{path.name}:{node.lineno}")
    assert not named, named
    assert not called, called


def test_no_private_imports_across_modules():
    # a name with a leading underscore belongs to its module: another module
    # that needs it is asking for public API (dunders such as __version__ are
    # public)
    private = [
        f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private, private


def _uses(path: Path) -> tuple[set[str], set[str]]:
    """Names a module loads and names it reads as attributes (``x.name``),
    outside the def or class of the same name (a recursive call or a method
    naming its own class is not a use)."""
    names, attributes = set(), set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), frozenset())
    return names, attributes


def _public_methods(path: Path) -> dict[str, str]:
    """Methods and properties of the module's public classes whose names do
    not start with an underscore (dunders and private helpers are skipped;
    fields are slots, not functions), as name -> Class.name."""
    methods = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    methods.setdefault(item.name, f"{node.name}.{item.name}")
    return methods


def test_every_export_is_used_outside_the_tests():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(exported) >= 30
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    methods = {}
    for path in sources:
        methods.update(_public_methods(path))
    assert len(methods) >= 13
    sources += sorted((ROOT / "scripts").glob("*.py"))
    names, attributes = (set().union(*sets) for sets in zip(*map(_uses, sources)))
    used = names | attributes
    assert not exported - used, sorted(exported - used)
    # a parameter or local of the same name is no use of a method
    assert not methods.keys() - attributes, sorted(methods[name] for name in methods.keys() - attributes)


def test_cli_import_loads_no_introspection_modules():
    # every CLI call pays for its imports; dataclasses alone, with inspect,
    # ast, dis and tokenize, costs several ms of it, and typing, which the
    # annotations never need, about 4 ms.  -S keeps out the modules that
    # site's .pth files import.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import involift.cli; print(*sys.modules)"
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True
    )
    loaded = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"} & set(child.stdout.split())
    assert not loaded, sorted(loaded)

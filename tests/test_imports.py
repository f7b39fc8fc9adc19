"""Every name a qcombs module imports is used by that module, and every
module-level private name, function and class is read somewhere in the
package.

No linter runs on the package, so an import or a helper left behind by a
refactor would otherwise go unnoticed.  A name counts as used when the
module reads it, or, for the package's ``__init__``, when ``__all__``
exports it.  A defined name counts as read when any module of the package
loads it, reads it as an attribute or imports it; ``__init__`` imports
every name that ``__all__`` exports, so an exported function is read.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qcombs"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("from .channels import apply, compose\n\napply(1, 2)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"compose"}


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level names with a leading underscore, not dunders, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound = [node.target.id]
        else:
            continue
        private = [n for n in bound if n.startswith("_") and not n.startswith("__")]
        names.update(dict.fromkeys(private, node.lineno))
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names the module loads, reads as attributes or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and classes without a leading underscore, with their line."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def orphans(trees: dict[str, ast.Module], definitions) -> dict[str, str]:
    """Names from ``definitions(tree)`` that no module in ``trees`` reads, keyed module:line."""
    read = set().union(*map(read_names, trees.values()))
    return {
        f"{module}:{line}": name
        for module, tree in sorted(trees.items())
        for name, line in definitions(tree).items()
        if name not in read
    }


def package_trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}


def test_package_reads_every_private_name():
    found = orphans(package_trees(), private_definitions)
    assert not found, f"private names no module reads: {found}"


def test_package_reads_or_exports_every_public_name():
    found = orphans(package_trees(), public_definitions)
    assert not found, f"functions and classes no module reads or exports: {found}"


def test_detects_an_orphaned_private_name():
    helper = ast.parse("_USED = 1\n_ORPHAN = 2\n\ndef _left_behind(x):\n    return x\n")
    caller = ast.parse("from .helper import _USED\n\nprint(_USED)\n")
    found = orphans({"helper.py": helper, "caller.py": caller}, private_definitions)
    assert set(found.values()) == {"_ORPHAN", "_left_behind"}


def test_detects_an_orphaned_public_name():
    helper = ast.parse(
        "def used(x):\n    return x\n\ndef exported(x):\n    return x\n\n"
        "def left_behind(x):\n    return x\n\nclass Orphan:\n    pass\n"
    )
    caller = ast.parse("from .helper import used\n\nused(1)\n")
    init = ast.parse("from .helper import exported\n\n__all__ = ['exported']\n")
    trees = {"helper.py": helper, "caller.py": caller, "__init__.py": init}
    found = orphans(trees, public_definitions)
    assert found == {"helper.py:7": "left_behind", "helper.py:10": "Orphan"}


# How a comb is stored (dense operator, thin factor, Pauli weights or
# process matrix) is combs.py's business: elsewhere a comb closes, twirls
# and purifies through combs.py's dispatch.  The one other reader is the off-diagonal guard of
# extract_pauli_diag, which a Pauli comb passes by construction.
STORE_ALLOWED = {"twirl.py:extract_pauli_diag.pauli"}

# What vcp.py closed combs with before combs.py took over the dispatch.
VCP_CLOSERS = {"_close", "_close_factor", "_layer_plugs", "_layer_ptms", "_pauli_close",
               "_thin_factor", "apply_comb"}


def store_reads(tree: ast.Module) -> set[str]:
    """Reads of a comb's store, as ``definition.name`` per module-level
    definition: the attributes ``factor``, ``pauli`` and ``chi``, and the name
    ``_thin_factor`` loaded or imported."""
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in ("factor", "pauli", "chi"):
                found.add(f"{owner}.{node.attr}")
            elif isinstance(node, ast.Name) and node.id == "_thin_factor":
                found.add(f"{owner}._thin_factor")
            elif isinstance(node, ast.ImportFrom):
                found |= {f"{owner}._thin_factor" for a in node.names if a.name == "_thin_factor"}
    return found


def test_only_combs_reads_how_a_comb_is_stored():
    found = {
        f"{module}:{read}"
        for module, tree in package_trees().items()
        if module != "combs.py"
        for read in store_reads(tree)
    }
    assert found <= STORE_ALLOWED, f"store reads outside combs.py: {found - STORE_ALLOWED}"
    vcp = ast.parse((PACKAGE / "vcp.py").read_text())
    assert not set(imported_names(vcp)) & VCP_CLOSERS


def test_detects_a_store_read():
    tree = ast.parse(
        "from .combs import _thin_factor\n\n"
        "def close(c):\n    if c.pauli is not None:\n        return c.factor\n"
        "    return c.chi if c.chi is not None else _thin_factor(c)\n\n"
        "def trace(c):\n    return c.choi_op.trace()\n"
    )
    assert store_reads(tree) == {
        "<module>._thin_factor", "close.pauli", "close.factor", "close.chi", "close._thin_factor"
    }

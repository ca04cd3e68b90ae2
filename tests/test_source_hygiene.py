"""Static checks on the package source: no unused imports, no dead definitions.

The checks parse ``src/kreinspace`` with the standard-library ``ast``
module, so they need no linter.  ``__init__.py`` re-exports the public API
and is exempt from the unused-import check; its exports must each be read
by another module of the package, apart from the few listed with a reason
in ``CALLER_LESS_EXPORTS``.  No module reads another module's underscore
names, apart from the few listed with a reason in ``PRIVATE_READS``.
"""

import ast
from pathlib import Path

import pytest

import kreinspace

PACKAGE = Path(kreinspace.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = {path.stem for path in MODULES}
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _dotted(node):
    """``a.b.c`` for an attribute chain rooted at a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _uses(scope):
    """Every name and dotted attribute chain read inside ``scope``."""
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain is not None:
                used.add(chain)
    return used


def _unused_imports(tree):
    """``(line, name)`` of each import that nothing in its scope reads.

    A module-level import may be read anywhere in the module, one inside a
    function only in that function.  ``import a.b`` binds ``a`` but must be
    read as ``a.b...``, so the submodule it loads is the one in use.
    """
    scopes = [(tree, tree.body)]
    scopes += [
        (node, node.body)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    unused = []
    for scope, body in scopes:
        used = _uses(scope)
        imports = [
            node
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                needed = alias.asname or alias.name
                read = needed in used or any(u.startswith(needed + ".") for u in used)
                if not read:
                    unused.append((node.lineno, needed))
    return unused


@pytest.mark.parametrize(
    "name", [path.name for path in MODULES if path.name != "__init__.py"]
)
def test_no_unused_imports(name):
    assert _unused_imports(TREES[name]) == []


def _definitions(tree):
    """``(name, first line, last line)`` of each module-level def, class and constant."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [
                node.id
                for target in stmt.targets
                for node in ast.walk(target)
                if isinstance(node, ast.Name)
            ]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        found += [
            (n, stmt.lineno, stmt.end_lineno) for n in names if not n.startswith("__")
        ]
    return found


def _references(tree):
    """``(name, line)`` of every read of a name, module attribute or imported name.

    An attribute counts only when it is read off a package module, as in
    ``serialize.CSV_HEADER``: the field ``rep.riccati_residual`` is no read
    of the function ``solver.riccati_residual``.
    """
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULE_NAMES
        ):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs += [(alias.name, node.lineno) for alias in node.names]
    return refs


def _reference_index():
    """``name -> [(module, line), ...]`` of every read in the package."""
    refs = {}
    for module, tree in TREES.items():
        for ref, line in _references(tree):
            refs.setdefault(ref, []).append((module, line))
    return refs


def _read_outside(reads, module, first, last):
    """Whether one of ``reads`` lies outside lines first..last of ``module``."""
    return any(other != module or not first <= line <= last for other, line in reads)


def test_every_module_level_definition_is_referenced():
    refs = _reference_index()
    dead = []
    for module, tree in TREES.items():
        for name, first, last in _definitions(tree):
            if not _read_outside(refs.get(name, ()), module, first, last):
                dead.append(f"{module}:{first} {name}")
    assert dead == []


#: Exported names that no module of the package reads, each with why it stays.
CALLER_LESS_EXPORTS = {
    "assemble": "the public constructor of a block operator from its four "
    "blocks; the tests and tests/contract.py build operators with it",
    "indefinite_inner_product": "the form [x, y] itself; acceptance "
    "criterion 11 checks a neutral vector with it",
    "subspace_from_angle_operator": "the inverse of angle_operator_from_subspace",
    "solve_shifted": "a target of bench/worker.py TARGETS",
    "solve_uniformly_dissipative": "a target of bench/worker.py TARGETS; "
    "acceptance criterion 4 calls it",
    "riesz_projector_quadrature": "the paper's contour-integral projector; "
    "acceptance criterion 2 checks it against the exact projector, and it is "
    "a target of bench/worker.py TARGETS",
    "invariant_subspace_from_projector": "the range of a projector report; "
    "bench/gate.py builds its reference K with it",
    "riccati_residual": "the Riccati residual of any K at any mu; acceptance "
    "criteria 3 and 11 call it",
    "riesz_projector_exact": "the sorted-Schur projector with its defects; "
    "acceptance criterion 2 checks the quadrature against it, and bench/gate.py "
    "builds its reference K with it",
}


def test_every_export_has_a_library_caller():
    refs = _reference_index()
    homes = {
        name: (module, first, last)
        for module, tree in TREES.items()
        if module != "__init__.py"
        for name, first, last in _definitions(tree)
    }
    uncalled = []
    for name in kreinspace.__all__:
        reads = [(m, line) for m, line in refs.get(name, ()) if m != "__init__.py"]
        if not _read_outside(reads, *homes[name]) and name not in CALLER_LESS_EXPORTS:
            uncalled.append(name)
    assert uncalled == []
    assert sorted(set(CALLER_LESS_EXPORTS) - set(kreinspace.__all__)) == []


#: ``(reader, home module, name)`` of the underscore names one package module
#: may read from another, each with why the name stays off the public API.
PRIVATE_READS = {
    ("harness.py", "projectors", "_schur_projector"): "the cross-check needs "
    "the bare Schur projector without the defects riesz_projector_exact adds",
    ("harness.py", "projectors", "_sign_projector"): "the Newton sign "
    "iteration is the harness's independent reference, not a library route",
}


def _private_reads(module, tree):
    """``(reader, home module, name)`` of each underscore name read off another module."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            pairs = [(node.module, alias.name) for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULE_NAMES
        ):
            pairs = [(node.value.id, node.attr)]
        else:
            continue
        reads |= {
            (module, home, name)
            for home, name in pairs
            if name.startswith("_")
            and not name.startswith("__")
            and home + ".py" != module
        }
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = set().union(*(_private_reads(m, tree) for m, tree in TREES.items()))
    assert sorted(reads - set(PRIVATE_READS)) == []
    # an allowance no module uses any more is dropped with it
    assert sorted(set(PRIVATE_READS) - reads) == []

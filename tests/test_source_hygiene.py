"""Static checks on the package source: no unused imports, no dead definitions.

The checks parse ``src/kreinspace`` with the standard-library ``ast``
module, so they need no linter.  ``__init__.py`` re-exports the public API
and is exempt from the unused-import check; its exports must each be read
by another module of the package, apart from the few listed with a reason
in ``CALLER_LESS_EXPORTS``.  No module reads another module's underscore
names, apart from the few listed with a reason in ``PRIVATE_READS``.  No
handler catches ``Exception`` or ``BaseException``, or everything with a
bare ``except:``: a defect must not pass for an expected failure.  No
function binds a local name that it never reads, unless the name starts
with an underscore.  No module but ``numerics`` takes a spectral norm
(``norm(x, 2)`` or ``norm(x, ord=2)``): spectral norms go through
``numerics.operator_norm`` and ``operator_norms``, so a rule that screens a
norm before paying for an SVD is written once.  No module but ``numerics``
shifts a diagonal by fancy index (``x[:, d, d]`` or ``x[..., d, d]``):
shifted stacks are built by ``numerics.shifted``.  No function calls
``signature()`` apart from the few listed with a reason in
``SIGNATURE_CALLS``: J is applied by negating the H- rows.
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


def _broad_handlers(tree):
    """Line of each ``except`` clause that catches everything or ``(Base)Exception``."""
    broad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(c is None or _dotted(c) in {"Exception", "BaseException"} for c in caught):
            broad.append(node.lineno)
    return broad


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_broad_exception_handlers(name):
    assert _broad_handlers(TREES[name]) == []


def _own_scope(func):
    """Every node of ``func``'s body outside the functions and classes nested in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(tree):
    """``(line, name)`` of each function-local name that is bound and never read.

    A local counts as read when the function, or a function nested in it,
    loads or deletes it.  Underscore names are exempt.
    """
    unused = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del))
        }
        for node in _own_scope(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound = node.id
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound = node.name
            else:
                continue
            if not bound.startswith("_") and bound not in read:
                unused.append((node.lineno, bound))
    return sorted(unused)


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_locals(name):
    assert _unused_locals(TREES[name]) == []


def _spectral_norms(tree):
    """Line of each ``norm(x, 2)`` or ``norm(x, ord=2)`` call."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None or name.rsplit(".", 1)[-1] != "norm":
            continue
        orders = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
        if any(isinstance(o, ast.Constant) and o.value == 2 for o in orders):
            lines.append(node.lineno)
    return lines


def test_spectral_norm_detector_flags_both_spellings():
    source = "np.linalg.norm(x, 2)\nnorm(x, ord=2)\nnp.linalg.norm(x)\nnorm(x, 1)\n"
    assert _spectral_norms(ast.parse(source)) == [1, 2]


@pytest.mark.parametrize("name", sorted(n for n in TREES if n != "numerics.py"))
def test_spectral_norms_are_taken_only_in_numerics(name):
    assert _spectral_norms(TREES[name]) == []


def _diagonal_shifts(tree):
    """Line of each ``x[:, d, d]`` or ``x[..., d, d]``, the same name twice."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript) or not isinstance(node.slice, ast.Tuple):
            continue
        parts = node.slice.elts
        if (
            len(parts) == 3
            and (
                isinstance(parts[0], ast.Slice)
                or (isinstance(parts[0], ast.Constant) and parts[0].value is Ellipsis)
            )
            and all(isinstance(part, ast.Name) for part in parts[1:])
            and parts[1].id == parts[2].id
        ):
            lines.append(node.lineno)
    return lines


def test_diagonal_shift_detector_flags_both_spellings():
    source = "x[:, d, d] -= mu\ny = x[..., i, i]\nx[:, i, j]\nx[:p, :p]\nx[0, d, d]\n"
    assert _diagonal_shifts(ast.parse(source)) == [1, 2]


@pytest.mark.parametrize("name", sorted(n for n in TREES if n != "numerics.py"))
def test_diagonals_are_shifted_only_in_numerics(name):
    assert _diagonal_shifts(TREES[name]) == []


#: ``(module, function)`` of the calls of ``signature()``, each with why the
#: dense J stays there.
SIGNATURE_CALLS = {
    ("harness.py", "random_dissipative"): "the generated bytes: A = J (R + iH) "
    "by the dense product writes 0.0 where negated rows would write -0.0 in "
    "the coupling-0 instances",
}


def _signature_calls(tree):
    """``(function, line)`` of each ``signature()`` call, by innermost function."""
    calls = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in _own_scope(func):
            if (
                isinstance(node, ast.Call)
                and (_dotted(node.func) or "").rsplit(".", 1)[-1] == "signature"
            ):
                calls.append((func.name, node.lineno))
    return calls


def test_signature_call_detector_finds_the_enclosing_function():
    source = "def f(s):\n    return s.structure.signature() @ a\ndef g():\n    signature\n"
    assert _signature_calls(ast.parse(source)) == [("f", 2)]


def test_j_is_applied_densely_only_where_listed():
    calls = {
        (module, func) for module, tree in TREES.items() for func, _ in _signature_calls(tree)
    }
    assert sorted(calls - set(SIGNATURE_CALLS)) == []
    # an allowance no function uses any more is dropped with it
    assert sorted(set(SIGNATURE_CALLS) - calls) == []

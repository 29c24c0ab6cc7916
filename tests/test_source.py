"""Rules on the library source itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinor_forge"


def test_library_has_no_assert_statements():
    """``python -O`` strips assert statements, so no check in the library may
    rest on one: every module of the package parses without an ``assert``."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


# The kernel's bit layout: the coefficient map, the tuple-to-bits index and
# the per-slot conversions.  Only the kernel modules read it.
LAYOUT_NAMES = {"_data", "_index", "_slot_bits", "_slot_tuple"}
KERNEL_MODULES = ("spinrep", "twisted")
OUTSIDE_KERNEL = tuple(sorted(path.stem for path in SRC.glob("*.py")
                              if path.stem not in KERNEL_MODULES))
BOUNDARY_MODULES = ("serialize", "catalog", "report", "cli")


def _identifier(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # getattr(phi, "_data")
    return None


def _uses(modules, names):
    return [f"{name}.py:{node.lineno}:{_identifier(node)}" for name in modules
            for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text()))
            if _identifier(node) in names]


def test_only_the_kernel_modules_name_the_bit_layout():
    """Every module but ``spinrep`` and ``twisted`` sees a spinor through
    its constructor, ``coeffs``, ``_entries()`` and the kernel's integer
    maps, never through the bit layout, so that layout can change inside
    the kernel modules alone."""
    assert {"forms", "analysis", "serialize", "cli"} <= set(OUTSIDE_KERNEL)
    found = _uses(OUTSIDE_KERNEL, LAYOUT_NAMES)
    assert not found, found


def test_boundary_modules_do_not_name_the_lie_element_layout():
    """The boundary modules see a Lie-algebra element (``AmbientElement``)
    through its constructor, the ``a`` and ``b`` views and ``flat()``, never
    through its integer ``_terms``, so that layout can change inside
    ``analysis`` alone."""
    found = _uses(BOUNDARY_MODULES, {"_terms"})
    assert not found, found


# The signed-flip kernel: the walk, the pairing, the flip records they read,
# the tables and caches of records and the grouping of supp phi by bits.
# Only the kernel modules name them, but for ``_bivector_map``, which
# ``forms`` and ``analysis`` may call.
KERNEL_NAMES = {"_walk", "_pair", "_twist_acts", "_monomial", "_pair_acts", "_bivector_map",
                "_slot_unit", "_generator_on_map", "_slot_acts", "_IDENTITY", "_merge",
                "_pattern_slots", "_twist_groups"}
BIVECTOR_USERS = ("forms", "analysis")


def test_only_the_kernel_modules_name_the_flip_kernel():
    """Every module but ``spinrep`` and ``twisted`` reaches the signed-flip
    kernel through public operations, the harness
    ``vanishing_identity_failures``, the induced-form sums
    (``twisted._induced``) and the integer-map interface (``_bivector_map``,
    in ``forms`` and ``analysis`` only, ``_norm2`` and ``_lincomb``), never
    by naming the walk, ``_pair`` or a flip record, so the kernel can change
    behind them."""
    found = _uses(OUTSIDE_KERNEL, KERNEL_NAMES)
    found = [use for use in found
             if not (use.endswith(":_bivector_map") and use.split(".py")[0] in BIVECTOR_USERS)]
    assert not found, found


def _has_xor(node):
    return any(isinstance(x, ast.BinOp) and isinstance(x.op, ast.BitXor) for x in ast.walk(node))


def test_only_the_walk_applies_a_flip():
    """No function of ``src/`` but ``_walk`` stores at an XOR-ed index, by
    a subscript assignment or a dict-comprehension key that holds ``^``,
    and ``_walk`` is defined once, in ``spinrep``: every signed flip is
    applied by the one walk, and a lone record (a generator, gamma) is a
    walk of one record.  Each store is charged to its innermost function;
    there is no allow-list."""
    found, walks = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        walks += [path.stem for f in functions if f.name == "_walk"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                index = node.slice
            elif isinstance(node, ast.DictComp):
                index = node.key
            else:
                continue
            owner = max((f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                        key=lambda f: f.lineno, default=None)
            name = owner.name if owner else "<module>"
            if _has_xor(index) and name != "_walk":
                found.append(f"{path.name}:{node.lineno}:{name}")
    assert not found, found
    assert walks == ["spinrep"], walks


# The tests' one dense model of the spinor space, and the building blocks
# that no test module may define again.
TESTS = Path(__file__).resolve().parent
DENSE_NAMES = {"kron", "dense_generator", "apply_factor", "_slot_operator", "_rref"}


def _imports(tree):
    """(lineno, dotted name, relative) of each name imported: ``import p``
    gives p, ``from p import x`` gives p.x, which may be a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name, False) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, f"{node.module or ''}.{alias.name}".lstrip("."), node.level > 0)
                        for alias in node.names)


def test_the_oracle_is_independent_of_the_kernel():
    """``tests/oracle.py`` imports no module of ``spinor_forge`` but
    ``scalars``, and nothing of the tests package, so it cannot restate the
    kernel it checks."""
    found = [f"oracle.py:{line}:{name}"
             for line, name, relative in _imports(ast.parse((TESTS / "oracle.py").read_text()))
             if relative or (name.split(".")[0] == "spinor_forge"
                             and name.split(".")[:2] != ["spinor_forge", "scalars"])]
    assert not found, found


def test_test_modules_share_no_dense_model():
    """No ``test_*.py`` defines a dense building block (``kron``,
    ``dense_generator``, ``apply_factor``, ``_slot_operator``) or a second
    reduced row echelon form (``_rref``), or imports a helper from another
    ``test_*.py``: the dense model is ``oracle.py``, shared draws and the
    one Fraction RREF (``plain_rref``) are ``helpers.py``."""
    files = sorted(TESTS.glob("test_*.py"))
    assert len(files) > 10
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in DENSE_NAMES:
                found.append(f"{path.name}:{node.lineno}: defines {node.name}")
            if isinstance(node, ast.Assign):
                found += [f"{path.name}:{node.lineno}: defines {t.id}" for t in node.targets
                          if isinstance(t, ast.Name) and t.id in DENSE_NAMES]
        found += [f"{path.name}:{line}: imports {name}" for line, name, _ in _imports(tree)
                  if any(part.startswith("test_") for part in name.split("."))]
    assert not found, found


def _public_names_of_all(tree):
    [names] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    return set(names)


def test_every_public_name_has_a_caller():
    """Every module-level function or class of ``src/`` without a leading
    underscore is named in the code of another line of ``src/`` (a name or
    an attribute, not a docstring), is in ``__all__``, or is named in a file
    under ``bench/``, which calls some functions by module.  There is no
    allow-list: once ``bench/`` stops naming a function, this flags it."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    exported = _public_names_of_all(trees[SRC / "__init__.py"])
    named = [(path, node.lineno, _identifier(node)) for path, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    bench = {word for path in sorted((ROOT / "bench").rglob("*.py"))
             for word in re.findall(r"\w+", path.read_text())}
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)  # its own lines, recursion included
            called = any(name == node.name and not (where == path and line in own)
                         for where, line, name in named)
            if not (called or node.name in exported or node.name in bench):
                found.append(f"{path.name}:{node.lineno}:{node.name}")
    assert not found, found

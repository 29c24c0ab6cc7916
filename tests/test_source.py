"""Rules on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spinor_forge"


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


def _boundary_uses(names):
    return [f"{name}.py:{node.lineno}:{_identifier(node)}" for name in BOUNDARY_MODULES
            for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text()))
            if _identifier(node) in names]


def test_boundary_modules_do_not_name_the_bit_layout():
    """``serialize``, ``catalog``, ``report`` and ``cli`` see a spinor through
    its constructor, ``coeffs`` and ``_entries()``, never through the bit
    layout, so that layout can change inside the kernel modules alone."""
    found = _boundary_uses(LAYOUT_NAMES)
    assert not found, found


def test_boundary_modules_do_not_name_the_lie_element_layout():
    """The boundary modules see a Lie-algebra element (``AmbientElement``)
    through its constructor, the ``a`` and ``b`` views and ``flat()``, never
    through its integer ``_terms``, so that layout can change inside
    ``analysis`` alone."""
    found = _boundary_uses({"_terms"})
    assert not found, found


# The signed-flip kernel: the walk, the pairing and the flip records they
# read.  Only the kernel modules and ``analysis`` call them.
KERNEL_NAMES = {"_walk", "_pair", "_twist_acts", "_monomial", "_pair_acts", "_bivector_map",
                "_slot_unit", "_generator_on_map"}


def test_boundary_modules_do_not_name_the_flip_kernel():
    """The boundary modules reach the signed-flip kernel through public
    operations and the harnesses of ``analysis`` (such as
    ``vanishing_identity_failures``), never by naming a walk, the pairing
    or a flip record, so the kernel can change behind them."""
    found = _boundary_uses(KERNEL_NAMES)
    assert not found, found

"""The package computes without floating point: a printed number is exact."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "higgsdt"


def float_sites(source):
    """(line, what) for every float or complex literal, float()/complex()
    call and cmath import in the source text."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, "literal %r" % node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            out.append((node.lineno, "%s() call" % node.func.id))
        elif isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            out.append((node.lineno, "import cmath"))
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            out.append((node.lineno, "from cmath import"))
    return out


def test_guard_sees_every_kind_of_float_site():
    source = ("import cmath\nfrom cmath import sqrt\nTOL = 1e-6\nz = 2j\n"
              "x = float('1')\ny = complex(1, 2)\nn = int(3)\n")
    assert [line for line, _ in float_sites(source)] == [1, 2, 3, 4, 5, 6]


def test_package_source_has_no_floats():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: float_sites(f.read_text()) for f in files}
    assert {name: sites for name, sites in found.items() if sites} == {}

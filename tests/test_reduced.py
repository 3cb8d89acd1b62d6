"""Every Fraction is reduced: no denominator factor divides the numerator,
and a zero Fraction has no denominator.  `algebra` alone may build a
Fraction without reducing it, and alone knows the canonical form of a
denominator factor."""

import ast
import pathlib
import random

import pytest

from higgsdt.algebra import (Fraction, NotDivisibleError, exact_divide, over_binomials,
                             t_expand, var_table)
from higgsdt.dt import CurveParams, alt_h_term, partition_series, zstar_series
from higgsdt.series import scaled_pleth_log

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "higgsdt"
T = var_table(genus=1)   # q, t, a1
Q, TE, A = T.exps(q=1), T.exps(t=1), T.exps(a1=1)


def assert_reduced(f):
    if f.is_zero():
        assert f.den == ()
    for factor in f.den:
        with pytest.raises(NotDivisibleError):
            exact_divide(f.num, factor)


def binomial(e1, e2):
    return T.monomial(e1) - T.monomial(e2)


def kernel_fractions():
    """Fractions from every kernel operation, several of them with a factor
    that cancels only after the operation."""
    # (q + a1) / ((q - t)(1 - t)) and (q - t)(1 + a1) / ((1 - q)(1 - t))
    a = over_binomials(T.var("q") + T.var("a1"), [(Q, TE), (0, TE)])
    b = over_binomials(binomial(Q, TE) * (T.one() + T.var("a1")), [(0, Q), (0, TE)])
    # q / (q - t) and t / (t - q): their sum is 1
    c = over_binomials(T.var("q"), [(Q, TE)])
    d = over_binomials(T.var("t"), [(TE, Q)])
    yield from (a, b, c, d, -a, a.scale(0), a.scale(2), a.mono_mul(Q - A, 3),
                a.mono_mul(Q, 0), a.adams(2), a + b, a - a, c + d, a * b,
                a * Fraction.zero(T), a.mul_poly(binomial(Q, TE)),
                a.mul_poly(binomial(2 * Q, 2 * TE)), a * over_binomials(T.one(), [(Q, A)]),
                b * over_binomials(T.one(), [(2 * Q, 2 * TE)]),
                # a prime of one side cancels in the other numerator, and
                # q^2 - 1 in the two numerators' parts q + 1 and q - 1
                c * over_binomials(binomial(Q, TE) * T.var("a1"), [(0, TE)]),
                over_binomials(T.var("q") + T.one(), [(2 * Q, 0)])
                * over_binomials(binomial(Q, 0), [(TE, 0)]),
                a.substitute_monomials({T.index["a1"]: Q}),
                b.substitute_monomials({T.index["a1"]: TE - Q}))
    yield from t_expand(b * over_binomials(T.one(), [(Q, 0)]), 3)
    # shifted by t: a zero coefficient first, then those of a
    yield from t_expand(a.mono_mul(TE), 4)


def test_kernel_operations_return_reduced_fractions():
    for f in kernel_fractions():
        assert_reduced(f)


def test_random_sums_and_products_are_reduced():
    rng = random.Random(31)
    pool = [(k * Q, 0) for k in (1, 2, 3)] + [(k * Q, k * TE) for k in (1, 2)] + [(0, TE)]

    def rand_frac():
        num = T.one()
        for e1, e2 in rng.sample(pool, rng.randint(0, 2)):
            num = num * binomial(e1, e2)
        return over_binomials(
            num.mono_mul(T.exps(a1=rng.randint(-1, 1)), rng.randint(1, 3))
            + T.monomial(T.exps(t=rng.randint(0, 2)), rng.randint(-2, 2)),
            rng.sample(pool, rng.randint(0, 3)))

    for _ in range(200):
        x, y = rand_frac(), rand_frac()
        for f in (x + y, x - y, x * y, x.adams(2) + y):
            assert_reduced(f)


@pytest.mark.parametrize("genus,ell", [(0, 1), (1, 1), (2, 3)])
def test_pipeline_coefficients_are_reduced(genus, ell):
    cp = CurveParams(genus=genus, ell=ell)
    alt = partition_series(cp.table(), 3, lambda lam: alt_h_term(cp, lam))
    for s in (zstar_series(cp, 3), alt):
        for series in (s, scaled_pleth_log(s)):
            for c in series.coeffs:
                assert_reduced(c)


# -- only algebra may skip the reduction or build a factor ---------------------

PRIVATE = ("_reduce_fraction", "_reduced")
# the canonical form of a denominator factor; callers hand pairs to
# `over_binomials` instead
FACTOR_FORM = ("canonical_binomial", "BinomialFactor", "factored_binomials")


def algebra_only_sites(source, names=PRIVATE):
    """(line, what) for every call of one of names, import of one, and call
    passing reduce=."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in names:
                out.append((node.lineno, "%s() call" % name))
            if any(kw.arg == "reduce" for kw in node.keywords):
                out.append((node.lineno, "reduce= keyword"))
        elif isinstance(node, ast.ImportFrom):
            out += [(node.lineno, "import %s" % a.name)
                    for a in node.names if a.name in names]
    return out


def test_guard_sees_every_kind_of_site():
    source = ("from .algebra import _reduce_fraction\n"
              "x = _reduce_fraction(n, d)\n"
              "y = Fraction._reduced(n, d)\n"
              "z = Fraction(n, d, reduce=False)\n"
              "w = Fraction(n, d)\n")
    assert [line for line, _ in algebra_only_sites(source)] == [1, 2, 3, 4]


def test_only_algebra_skips_the_reduction():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {f.name: algebra_only_sites(f.read_text()) for f in files}
    assert "reduce= keyword" not in {w for _, w in found.pop("algebra.py")}
    assert {name: sites for name, sites in found.items() if sites} == {}


def test_guard_sees_the_factor_form():
    source = ("from .algebra import BinomialFactor, canonical_binomial\n"
              "from .algebra import factored_binomials as fb\n"
              "f, u, s = algebra.canonical_binomial(t, e1, e2)\n"
              "g = BinomialFactor(m1, m2)\n"
              "h = over_binomials(num, pairs)\n")
    assert ([line for line, _ in algebra_only_sites(source, FACTOR_FORM)]
            == [1, 1, 2, 3, 4])


def test_only_algebra_knows_the_factor_form():
    files = sorted(SRC.glob("*.py"))
    assert "algebra.py" in {f.name for f in files}
    found = {f.name: algebra_only_sites(f.read_text(), FACTOR_FORM)
             for f in files if f.name != "algebra.py"}
    assert {name: sites for name, sites in found.items() if sites} == {}


# -- only algebra may read the packed digit layout -----------------------------

# `VarTable`'s layout attributes and the module constants behind them; other
# modules read monomials through `VarTable`'s digit readers
LAYOUT_ATTRS = ("_shifts", "_bias", "_spread", "_guards")
LAYOUT_NAMES = ("DIGIT_BITS", "_HALF", "_DIGIT_MASK")


def layout_sites(source):
    """(line, what) for every read of a layout attribute and every import
    or attribute read of a layout constant."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRS + LAYOUT_NAMES:
            out.append((node.lineno, ".%s" % node.attr))
        elif isinstance(node, ast.ImportFrom):
            out += [(node.lineno, "import %s" % a.name)
                    for a in node.names if a.name in LAYOUT_NAMES]
    return out


def test_guard_sees_every_layout_read():
    source = ("from .algebra import DIGIT_BITS, _HALF\n"
              "from .algebra import _DIGIT_MASK as m\n"
              "x = self._bias & self._amask\n"
              "y = table._shifts[2:]\n"
              "z = t._spread(1), t._guards, algebra.DIGIT_BITS\n"
              "w = table.tails(keys, 2), table.digit(e, 0)\n")
    assert ([line for line, _ in layout_sites(source)]
            == [1, 1, 2, 3, 4, 5, 5, 5])


def test_only_algebra_reads_the_digit_layout():
    files = sorted(SRC.glob("*.py"))
    assert "algebra.py" in {f.name for f in files}
    found = {f.name: layout_sites(f.read_text()) for f in files if f.name != "algebra.py"}
    assert {name: sites for name, sites in found.items() if sites} == {}


# -- only algebra may refuse an exponent range -----------------------------------

# the range's constants; other modules refuse through `VarTable.check_range`
# and `VarTable.check_exponents`, and may catch ExponentRangeError, not raise it
RANGE_NAMES = ("EXP_LIMIT", "EXP_BITS")


def range_sites(source):
    """(line, what) for every import or attribute read of a range constant
    and every construction of an ExponentRangeError."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if ast.unparse(node.func).rsplit(".", 1)[-1] == "ExponentRangeError":
                out.append((node.lineno, "ExponentRangeError()"))
        elif isinstance(node, ast.Attribute) and node.attr in RANGE_NAMES:
            out.append((node.lineno, ".%s" % node.attr))
        elif isinstance(node, ast.ImportFrom):
            out += [(node.lineno, "import %s" % a.name)
                    for a in node.names if a.name in RANGE_NAMES]
    return out


def test_guard_sees_every_range_site():
    source = ("from .algebra import EXP_BITS, ExponentRangeError\n"
              "from .algebra import EXP_LIMIT as lim\n"
              "raise ExponentRangeError('exponent %d outside' % e)\n"
              "raise algebra.ExponentRangeError(algebra.EXP_LIMIT)\n"
              "try:\n"
              "    table.check_exponents(lo, hi)\n"
              "except ExponentRangeError:\n"
              "    pass\n")
    assert [line for line, _ in range_sites(source)] == [1, 2, 3, 4, 4]


def test_only_algebra_refuses_the_exponent_range():
    files = sorted(SRC.glob("*.py"))
    assert "algebra.py" in {f.name for f in files}
    found = {f.name: range_sites(f.read_text()) for f in files if f.name != "algebra.py"}
    assert {name: sites for name, sites in found.items() if sites} == {}

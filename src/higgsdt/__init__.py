"""Exact Donaldson-Thomas invariants and moduli volumes of twisted Higgs
bundles on a smooth projective curve, with a finite-field point-counting
oracle on the projective line for independent verification."""

__version__ = "0.1.0"

from .partitions import Partition, enumerate_partitions
from .algebra import (VarTable, var_table, LaurentPoly, Fraction, exact_divide, t_expand,
                      AlgebraError, ExponentRangeError, NotDivisibleError,
                      TableMismatchError, ZeroDenominatorError)
from .series import TruncSeries, pleth_exp, pleth_log, scaled_pleth_log, mobius
from .dt import (CurveParams, HalfPowerValue, IntegralityError, idt_star,
                 moduli_volume, omega, rank_one_idt)
from .positive import omega_plus, stabilization_check
from .zeta import CountingSequence, ZetaData, counting_sequence, specialize_integer
from .oracle_p1 import compare_with_formula, semistable_count, stack_volume_p1

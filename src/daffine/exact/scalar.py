"""Exact rational scalars.

Every number in this package is a ``fractions.Fraction``; nothing is ever
rounded.  The helpers here coerce inputs and render values in the canonical
``p/q`` form used by the DSL and by reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Fraction

ScalarLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce an int, Fraction, or ``"p/q"`` string to an exact scalar; any
    other value, such as a float, a ``bool`` or a foreign number, raises
    :class:`TypeError`.

    >>> as_scalar("7/2")
    Fraction(7, 2)
    >>> as_scalar(3)
    Fraction(3, 1)
    """
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def format_scalar(value: Scalar) -> str:
    """Render a scalar as ``p/q`` in lowest terms, or ``p`` when q == 1.

    >>> format_scalar(Fraction(-4, 6))
    '-2/3'
    >>> format_scalar(Fraction(5, 1))
    '5'
    """
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

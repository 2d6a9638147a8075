"""Exact rational time values.

All time arithmetic in the toolkit is done with `fractions.Fraction`;
floating point is never used.  This module only renders them in the
surface syntax, which ``parser.parse_rational`` reads back.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["format_rational"]


def format_rational(value: Fraction) -> str:
    """Render a Fraction so that parse_rational(format_rational(q)) == q."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

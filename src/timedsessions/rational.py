"""Exact rational time values.

Time values are `fractions.Fraction` at the toolkit's interfaces; the
zone kernel, the progress explorer and the process interpreter compute
with ints over a common denominator and turn their results back into
`Fraction` at the boundary.  Floating point is never used.  This
module only renders the values in the surface syntax, which
``parser.parse_rational`` reads back.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["format_rational"]


def format_rational(value: Fraction) -> str:
    """Render a Fraction so that parse_rational(format_rational(q)) == q."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

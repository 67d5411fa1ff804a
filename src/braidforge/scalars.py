"""Scalar arithmetic in two modes: exact rationals and float64.

Every object in braidforge carries a scalar mode, either ``"exact"``
(``fractions.Fraction``, the default) or ``"float"`` (binary64).  Exact
entries are canonical by construction: reduced, positive denominator,
and never stored when zero.  Float comparisons use an absolute
tolerance ``EPS_CMP`` = 1e-9, applied by ``reports.first_difference``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import SchemaError

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

#: absolute comparison tolerance in float mode
EPS_CMP = 1e-9

#: the "p/q" and "p" strings that documents carry, read without a Fraction
_PLAIN_RATIO = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise SchemaError(f"unknown scalar mode {mode!r}; expected 'exact' or 'float'")
    return mode


def coerce(value, mode: str):
    """Coerce a Python number into the given mode's scalar type."""
    if mode == EXACT:
        if isinstance(value, float):
            raise SchemaError(f"float value {value!r} in exact mode")
        return Fraction(value)
    return float(value)


def as_int(raw) -> int:
    """raw as an int: an int, or a number of integral value.  A bool, a
    string or a non-integral number is refused, not truncated or parsed."""
    if type(raw) is int:
        return raw
    try:
        if not isinstance(raw, (bool, str)) and int(raw) == raw:
            return int(raw)
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"expected an integer, got {raw!r}")


def int_table(values, size: int, what: str) -> tuple:
    """values as a tuple of ints in range(size), read by ``as_int``; the
    type test and the range test are C-level passes."""
    table = tuple(values)
    if set(map(type, table)) != {int}:
        table = tuple(map(as_int, table))
    if table and (min(table) < 0 or max(table) >= size):
        raise SchemaError(f"{what} value out of range")
    return table


def zero(mode: str):
    return Fraction(0) if mode == EXACT else 0.0


def one(mode: str):
    return Fraction(1) if mode == EXACT else 1.0


def eq(a, b, mode: str) -> bool:
    if mode == EXACT:
        return a == b
    return abs(a - b) <= EPS_CMP


def format_scalar(value, mode: str):
    """Render a scalar for JSON: "p/q" string in exact mode, number in float mode."""
    if mode == EXACT:
        f = Fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return float(value)


def format_ratio(num: int, den: int) -> str:
    """The "p/q" string of num/den, for den > 0, as ``format_scalar`` prints
    it, without building a Fraction."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def parse_scalar(raw, mode: str):
    """Parse a JSON scalar: accepts "p/q", "p", or a number (ints only in
    exact mode); a float must be finite, and a boolean is no number."""
    if isinstance(raw, bool):
        raise SchemaError(f"bad {mode} scalar {raw!r} (booleans are not scalars)")
    if mode == EXACT:
        if isinstance(raw, str):
            try:
                return Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"bad exact scalar {raw!r}: {exc}") from None
        if isinstance(raw, int):
            return Fraction(raw)
        raise SchemaError(f"bad exact scalar {raw!r} (floats not allowed in exact mode)")
    if isinstance(raw, str):
        num, _, den = raw.partition("/")
        try:
            value = float(num) / float(den) if den else float(num)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad float scalar {raw!r}: {exc}") from None
    elif isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:
            raise SchemaError(f"float scalar {raw!r} out of range") from None
    else:
        raise SchemaError(f"bad float scalar {raw!r}")
    if not math.isfinite(value):  # NaN and infinities have no JSON form
        raise SchemaError(f"float scalar {raw!r} is not finite")
    return value


def parse_ratio(raw) -> tuple:
    """(numerator, denominator) in lowest terms of the exact scalar that
    ``parse_scalar`` reads; ints and plain "p/q" strings build no Fraction."""
    if type(raw) is int:
        return raw, 1
    # int() refuses more than 4300 digits; parse_scalar reports that
    if isinstance(raw, str) and len(raw) <= 4300 and _PLAIN_RATIO.fullmatch(raw):
        num, _, den = raw.partition("/")
        num, den = int(num), int(den or 1)
        if den:
            g = math.gcd(num, den)
            return num // g, den // g
    f = parse_scalar(raw, EXACT)
    return f.numerator, f.denominator

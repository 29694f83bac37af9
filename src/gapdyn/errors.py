"""Exception types shared across the package.

Class names double as the machine-readable tags printed by the command-line
interface, so they stay short and description-free.  Each class's
`exit_code` is its failure family, the CLI's exit status: 2 for data errors
(the default), 3 for numerical ones.

The module also owns `_check`, the one finiteness and bounds rule for every
scalar: a bad value reads `<name> must be finite, got nan` or `<name> must
be > 0, got -1.0`, with the bound printed as its caller passes it.
`_check_int` is the one rule for every integer input: `<name> must be an
integer >= 1, got 0`.  Neither takes a bool for a number.
`_check_array` is the same rule for every array input, and it names the
first bad entry: `<name> must be finite, got inf at index 0`.
"""

import math


class GapdynError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class InvariantViolation(GapdynError, ValueError):
    """A value violates a declared domain constraint."""


class Divergence(GapdynError, ArithmeticError):
    """Numerical integration produced a non-finite state."""

    exit_code = 3

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite state at step {step}")


class ImpulseOutsideGrid(GapdynError, ValueError):
    """An impulse time falls outside the simulation grid span."""


class Degenerate(GapdynError, ValueError):
    """The estimation problem carries no usable signal (rank-deficient)."""

    exit_code = 3


class NonStationary(GapdynError, ValueError):
    """The fitted lag polynomial admits no real damping coefficient."""

    exit_code = 3


class UnknownKey(GapdynError, ValueError):
    """A configuration document contains an unrecognized key."""


class BadValue(GapdynError, ValueError):
    """A configuration entry could not be parsed as the expected type."""


class MissingHeader(GapdynError, ValueError):
    """A CSV file does not begin with the expected column header."""


class NonUniformSpacing(GapdynError, ValueError):
    """Time stamps in a CSV series deviate from a uniform grid."""


class BadNumber(GapdynError, ValueError):
    """A CSV cell could not be parsed as a finite number."""


class BadEncoding(GapdynError, ValueError):
    """An input file is not valid UTF-8 text."""


def _check(name: str, value: float, low: float | None = None,
           low_strict: bool = False, high: float | None = None,
           high_strict: bool = False) -> None:
    """Raise InvariantViolation unless `value` is finite, within bounds and
    not a bool."""
    if isinstance(value, bool):
        raise InvariantViolation(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise InvariantViolation(f"{name} must be finite, got {value!r}")
    if low is not None and (value < low or (low_strict and value == low)):
        op = ">" if low_strict else ">="
        raise InvariantViolation(f"{name} must be {op} {low}, got {value!r}")
    if high is not None and (value > high or (high_strict and value == high)):
        op = "<" if high_strict else "<="
        raise InvariantViolation(f"{name} must be {op} {high}, got {value!r}")


def _check_int(name: str, value: int, low: int, high: int | None = None) -> None:
    """Raise InvariantViolation unless `value` is an int, not a bool, in
    [low, high) (at least `low` when `high` is None)."""
    integer = isinstance(value, int) and not isinstance(value, bool)
    if not (integer and low <= value and (high is None or value < high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise InvariantViolation(f"{name} must be an integer {bound}, got {value!r}")


def _check_array(name: str, values, size: int | None = None, min_size: int = 0):
    """`values` as a 1-d float array of `size` entries (at least `min_size`
    when None), all finite; otherwise InvariantViolation."""
    import numpy as np  # here, so that importing gapdyn loads no numpy

    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < min_size or (size is not None and arr.size != size):
        want = size if size is not None else f"at least {min_size}"
        raise InvariantViolation(f"{name} must be 1-d with {want} entries, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvariantViolation(f"{name} must be finite, got {float(arr[i])!r} at index {i}")
    return arr

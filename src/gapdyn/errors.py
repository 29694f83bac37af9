"""Exception types shared across the package.

Class names double as the machine-readable tags printed by the command-line
interface, so they stay short and description-free.  Each class's
`exit_code` is its failure family, the CLI's exit status: 2 for data errors
(the default), 3 for numerical ones.

The module also owns `_check`, the one finiteness and bounds rule for every
scalar: a bad value reads `<name> must be finite, got nan` or `<name> must
be > 0, got -1.0`, with the bound printed as its caller passes it, and one
that is no real number (a bool, str, None, complex, Decimal or list) reads
`<name> must be a number, got '1'`.
`_check_int` is the one rule for every integer input: `<name> must be an
integer >= 1, got 0`.  With no upper bound it counts float64 entries, so it
is also refused past the count ceiling sys.maxsize // 8, the most entries
whose bytes numpy's signed machine word can count.
`_check_array` is the same rule for every array input, and it names the
first bad entry: `<name> must be finite, got inf at index 0`, or reads
`<name> must be an array of numbers` where an entry is no real number.
`_allocating` is the one rule for an input too large for memory: a
MemoryError from allocating one entry per count reads `cannot allocate a
grid of n_steps=10 nodes`, naming the count.

A value that passes `_check` may be a numpy scalar, whose arithmetic warns
where float arithmetic overflows quietly; an argument's arithmetic that can
overflow takes float(value), which is exact, so it gives a float's result
and no warning.
"""

import contextlib
import math
import sys


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
    """Raise InvariantViolation unless `value` is a real number (no bool, and
    no Decimal, which mixes with no float), finite and within bounds."""
    if not isinstance(value, float):  # floats skip the slower ABC check
        import numbers  # here, so that importing gapdyn loads no more modules

        if isinstance(value, bool) or not isinstance(value, numbers.Real):
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
    [low, high) (in [low, sys.maxsize // 8] when `high` is None)."""
    integer = isinstance(value, int) and not isinstance(value, bool)
    if not (integer and low <= value and (high is None or value < high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise InvariantViolation(f"{name} must be an integer {bound}, got {value!r}")
    if high is None and value > sys.maxsize // 8:
        raise InvariantViolation(f"{name} must be <= {sys.maxsize // 8}, got {value!r}")


def _check_array(name: str, values, size: int | None = None, min_size: int = 0):
    """`values` as a 1-d float array of `size` entries (at least `min_size`
    when None), all finite; otherwise InvariantViolation."""
    import numpy as np  # here, so that importing gapdyn loads no numpy

    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":  # a float cast would drop the imaginary parts
            raise TypeError
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # text, ragged, objects, huge ints
        raise InvariantViolation(f"{name} must be an array of numbers") from None
    if arr.ndim != 1 or arr.size < min_size or (size is not None and arr.size != size):
        want = size if size is not None else f"at least {min_size}"
        raise InvariantViolation(f"{name} must be 1-d with {want} entries, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InvariantViolation(f"{name} must be finite, got {float(arr[i])!r} at index {i}")
    return arr


@contextlib.contextmanager
def _allocating(what: str):
    """Raise InvariantViolation("cannot allocate <what>") for a MemoryError
    in the block, where `what` names the count that sized the allocation:
    an input too large for memory is a bad input, not a bare Python error."""
    try:
        yield
    except MemoryError:
        raise InvariantViolation(f"cannot allocate {what}") from None

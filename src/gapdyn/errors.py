"""Exception types shared across the package.

Class names double as the machine-readable tags printed by the command-line
interface, so they stay short and description-free.  Each class's
`exit_code` is its failure family, the CLI's exit status: 2 for data errors
(the default), 3 for numerical ones.

The module also owns `_check`, the one finiteness and bounds rule for every
scalar: a bad value reads `<name> must be finite, got nan` or `<name> must
be > 0, got -1.0`, with the bound printed as its caller passes it, and one
that is no real number (a bool, str, None, complex, Decimal or list) reads
`<name> must be a number, got '1'`.  It returns a Python float, from an int
or a numpy scalar too, which every caller keeps, so each formula runs in
float arithmetic; a record keeps it through `_check_field`
(`_check_array_field` for an array).  `_check_int` is the one rule for every
integer input: `<name> must be an integer >= 1, got 0`; it returns a Python
int, which every caller keeps.  With no upper bound it counts float64
entries, so it is also refused past the count ceiling sys.maxsize // 8, the
most entries whose bytes numpy's signed machine word can count.
`_check_array` is the same rule for every array input, and it names the
first bad entry: `<name> must be finite, got inf at index 0`, or reads
`<name> must be an array of numbers` where an entry is no real number.
`_allocating` is the one rule for an input too large for memory: a
MemoryError from allocating one entry per count reads `cannot allocate a
grid of n_steps=10 nodes`, naming the count.

Every record of the package is a `_Record`, a frozen class whose fields are
its annotations, built here, where every command already loads it.
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
           high_strict: bool = False) -> float:
    """`value` as a float, if it is a real number (no bool, and no Decimal,
    which mixes with no float), finite and within bounds; otherwise
    InvariantViolation, which words an int as the float it rounds to."""
    try:
        if type(value) is not float:
            if type(value) is not int:  # an int skips the ABC checks
                import numbers  # here, so that importing gapdyn loads no more modules

                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise InvariantViolation(f"{name} must be a number, got {value!r}")
            value = float(value)
        finite = math.isfinite(value)
    except OverflowError:  # past the float range: a huge int or Fraction, worded as given
        finite = False
    if not finite:
        raise InvariantViolation(f"{name} must be finite, got {value!r}")
    if low is not None and (value < low or (low_strict and value == low)):
        op = ">" if low_strict else ">="
        raise InvariantViolation(f"{name} must be {op} {low}, got {value!r}")
    if high is not None and (value > high or (high_strict and value == high)):
        op = "<" if high_strict else "<="
        raise InvariantViolation(f"{name} must be {op} {high}, got {value!r}")
    return value


class _Record:
    """A frozen record, as a frozen dataclass is, at no import or per-class
    code generation cost: its fields are the subclass's own annotations, in
    order, and a class attribute is a field's default.  It is built by
    position or keyword, then runs `__post_init__`; compares and hashes as
    its field tuple, against its own type only; and reads back as
    `Name(field=value, ...)`.  `_replace(**changes)`, copy and pickle build
    a copy through the constructor, so it is checked again."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        # Each field is stored in field order through object.__setattr__,
        # never through self.__dict__, which would turn off the interpreter's
        # fast path for reading it.
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if len(args) < len(names):
            try:
                for name in names[len(args):]:
                    value = kwargs.pop(name) if name in kwargs else cls._defaults[name]
                    object.__setattr__(self, name, value)
            except KeyError:
                raise TypeError(f"{cls.__name__}() missing field {name!r}") from None
        if kwargs:
            name = next(iter(kwargs))
            problem = "got field {!r} twice" if name in names else "has no field {!r}"
            raise TypeError(f"{cls.__name__}() " + problem.format(name))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __reduce__(self):  # a copy or an unpickled record is built, so checked, again
        return type(self), self._values()


def _check_field(record, name: str, low=None, low_strict=False, high=None, high_strict=False):
    """Store _check of field `name` of the _Record `record` in it, through
    object.__setattr__, since the record's own refuses every write."""
    value = _check(name, getattr(record, name), low, low_strict, high, high_strict)
    object.__setattr__(record, name, value)


def _check_int(name: str, value: int, low: int, high: int | None = None) -> int:
    """`value` as an int, if it is an Integral but no bool, in [low, high)
    (in [low, sys.maxsize // 8] when `high` is None); otherwise
    InvariantViolation, which words a numpy integer as the int it becomes."""
    if type(value) is not int:  # an int skips the ABC check
        import numbers  # here, so that importing gapdyn loads no more modules

        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            value = int(value)
    if not (type(value) is int and low <= value and (high is None or value < high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise InvariantViolation(f"{name} must be an integer {bound}, got {value!r}")
    if high is None and value > sys.maxsize // 8:
        raise InvariantViolation(f"{name} must be <= {sys.maxsize // 8}, got {value!r}")
    return value


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


def _check_array_field(record, name: str, size=None, min_size=0):
    """_check_field for an array: store a read-only copy, so the caller's stays writable."""
    arr = _check_array(name, getattr(record, name), size, min_size).copy()
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)


@contextlib.contextmanager
def _allocating(what: str):
    """Raise InvariantViolation("cannot allocate <what>") for a MemoryError
    in the block, where `what` names the count that sized the allocation:
    an input too large for memory is a bad input, not a bare Python error."""
    try:
        yield
    except MemoryError:
        raise InvariantViolation(f"cannot allocate {what}") from None

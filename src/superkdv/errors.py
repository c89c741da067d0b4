"""Exception types shared across the package, and the number checks that
raise one."""

import math


class SuperKdVError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # rebuilt without __init__, whose extra arguments some subclasses
        # require, so an error keeps its type, message and attributes when
        # a worker process sends it back pickled
        return _rebuilt, (type(self), self.args, vars(self))


def _rebuilt(cls, args, attributes):
    error = cls.__new__(cls, *args)
    error.__dict__.update(attributes)
    return error


class DescriptorMismatch(SuperKdVError):
    """Operands built over different algebra descriptors."""


class GradingError(SuperKdVError):
    """Operation violates the even/odd grading (e.g. a bare odd*odd product)."""


class NonFiniteFieldError(SuperKdVError):
    """A field operation encountered nan or inf samples."""


class StabilityError(SuperKdVError):
    """Requested time step exceeds the stability guard."""

    def __init__(self, message, suggested_dt):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class NumericalBlowup(SuperKdVError):
    """Non-finite values appeared during time integration."""

    def __init__(self, message, last_state, step, time):
        super().__init__(message)
        self.last_state = last_state
        self.step = step
        self.time = time


class ExpressionSyntaxError(SuperKdVError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def whole_number(name, value):
    """value as an int when it is a whole number, an int or an integral
    float such as 3.0; otherwise, a bool included, a SuperKdVError naming
    the setting."""
    try:
        whole = not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise SuperKdVError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def finite_number(name, value, kind=float):
    """value, a number or its text, as a finite number of the given kind,
    else, a bool included, a SuperKdVError naming the setting; an int
    setting takes an integral float such as 256.0 but not 2.5."""
    try:
        number = kind(value)
        finite = not isinstance(value, bool) and math.isfinite(number)
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        raise SuperKdVError(f"{name} must be a finite {kind.__name__}, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise SuperKdVError(f"{name} must be an integer, got {value!r}")
    return number

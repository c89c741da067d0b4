"""Exception types shared across the package, and the checks that raise
one: finite_number of every number given, term_coefficient of c lam^p eps^n."""

import math
import numbers


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


def finite_number(name, value, kind=float):
    """value as a finite number of the given kind: an int or a float,
    numpy's included, passes, and an int setting takes 256.0 but not 2.5.
    A bool, text, nan, inf or an int past the floats raises a SuperKdVError
    naming the setting."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = kind(value) if ok else None
        ok = ok and math.isfinite(number) and (kind is float or number == value)
    except (ValueError, OverflowError):  # int(nan), int(inf), float(10**400)
        ok = False
    if not ok:
        raise SuperKdVError(f"{name} must be a {'whole number' if kind is int else 'finite float'}, "
                            f"got {value!r}")
    return number


def term_coefficient(c, lam, power, eps=1.0, eps_power=0):
    """(c lam^power) eps^eps_power, the one rule for a term coefficient: a
    factor that takes it past the floats raises naming its parameter."""
    for name, base, exponent in (("lam", lam, power), ("epsilon", eps, eps_power)):
        try:
            c = float(c) * base ** exponent  # float ** int raises OverflowError
        except OverflowError:
            c = math.inf
        if not math.isfinite(c):
            raise SuperKdVError(f"{name} = {base!r} makes a term coefficient overflow the floats")
    return c

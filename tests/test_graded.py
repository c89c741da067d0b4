"""Algebra values and grid fields share one graded arithmetic.

A field is the same graded element as its value at one grid point, so
every operation on fields must agree, column by column, with the same
operation on the values of that column.  A field product is a matmul over
all columns at once and a value product one column at a time, so the sums
may run in a different order: agreement is to 1e-14 relative, not bitwise.
"""

import numpy as np
import pytest

from superkdv.algebra import (AlgebraDescriptor, EvenValue, OddValue,
                              value_norm)
from superkdv.errors import DescriptorMismatch, GradingError, SuperKdVError
from superkdv.fields import EvenField, OddField, PeriodicGrid

BACKENDS = ("scalar", "grassmann:3", "symplectic:2")
GRID = PeriodicGrid(2.0 * np.pi, 16)

OPERATIONS = {
    "even + even": (lambda a, b, p, q: a + b),
    "odd + odd": (lambda a, b, p, q: p + q),
    "even - even": (lambda a, b, p, q: a - b),
    "odd - odd": (lambda a, b, p, q: p - q),
    "-even": (lambda a, b, p, q: -a),
    "-odd": (lambda a, b, p, q: -p),
    "scalar * even": (lambda a, b, p, q: 2.5 * a),
    "odd * scalar": (lambda a, b, p, q: p * -0.75),
    "even * even": (lambda a, b, p, q: a * b),
    "even * odd": (lambda a, b, p, q: a * p),
    "odd * even": (lambda a, b, p, q: p * a),
    "commutator": (lambda a, b, p, q: p.commutator(q)),
}


def _fields(desc, seed=0):
    rng = np.random.default_rng(seed)
    even = [EvenField(GRID, desc, rng.uniform(-1.0, 1.0, (desc.even_dim, GRID.N)))
            for _ in range(2)]
    odd = [OddField(GRID, desc, rng.uniform(-1.0, 1.0, (desc.odd_dim, GRID.N)))
           for _ in range(2)]
    return even + odd


def _column(field, n):
    wrap = OddValue if isinstance(field, OddField) else EvenValue
    return wrap(field.descriptor, field.data[:, n])


def _assert_columns_agree(operation, fields):
    result = operation(*fields)
    for n in range(GRID.N):
        want = operation(*(_column(f, n) for f in fields))
        assert type(want).__name__ == type(result).__name__.replace("Field", "Value")
        dev = np.max(np.abs(result.data[:, n] - want.coords), initial=0.0)
        assert dev <= 1e-14 * value_norm(want.coords)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_field_columns_agree_with_values(backend, name):
    _assert_columns_agree(OPERATIONS[name], _fields(AlgebraDescriptor.from_string(backend)))


def test_grassmann_odd_mul_agrees():
    fields = _fields(AlgebraDescriptor.from_string("grassmann:3"))
    _assert_columns_agree(lambda a, b, p, q: p.odd_mul(q), fields)


def _assert_refusals(a, p, q, alien_a, alien_p):
    with pytest.raises(GradingError):
        p * q
    with pytest.raises(GradingError):
        a + p
    with pytest.raises(GradingError):
        p - a
    with pytest.raises(DescriptorMismatch):
        a * alien_a
    with pytest.raises(DescriptorMismatch):
        a + alien_a
    with pytest.raises(DescriptorMismatch):
        p.commutator(alien_p)


@pytest.mark.parametrize("backend", BACKENDS)
def test_both_families_refuse_alike(backend):
    desc = AlgebraDescriptor.from_string(backend)
    other = AlgebraDescriptor.from_string("grassmann:2" if backend == "scalar" else "scalar")
    a, _, p, q = _fields(desc)
    alien_a, _, alien_p, _ = _fields(other)
    _assert_refusals(a, p, q, alien_a, alien_p)
    _assert_refusals(*(_column(f, 0) for f in (a, p, q, alien_a, alien_p)))


def test_only_odd_elements_have_the_odd_products():
    for cls in (EvenValue, EvenField):
        assert not hasattr(cls, "commutator") and not hasattr(cls, "odd_mul")
    for cls in (OddValue, OddField):
        assert callable(cls.commutator) and callable(cls.odd_mul)


def test_values_and_fields_do_not_combine():
    a, _, p, q = _fields(AlgebraDescriptor.from_string("symplectic:2"))
    for field, value in ((a, _column(a, 0)), (p, _column(q, 0)), (a, _column(p, 0))):
        with pytest.raises(SuperKdVError):
            field * value
        with pytest.raises(SuperKdVError):
            value * field
    with pytest.raises(SuperKdVError):
        p.commutator(_column(q, 0))
    with pytest.raises(SuperKdVError):
        _column(p, 0).commutator(q)

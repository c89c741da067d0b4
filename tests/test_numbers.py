"""One rule for every number the package is given: errors.finite_number.

Each public numeric parameter refuses a bool, numpy's included, text,
nan and inf, and a whole-number parameter refuses a fraction too, with a
SuperKdVError that names the parameter: never a TypeError, and never a
bool read as 1.
"""

import re

import numpy as np
import pytest

from superkdv.algebra import AlgebraDescriptor
from superkdv.dynamics import SystemState, integrate
from superkdv.errors import SuperKdVError, finite_number
from superkdv.invariants import conserved_quantities, hamiltonian_density
from superkdv.fields import (EvenField, GaussianIC, OddField, PeriodicGrid,
                             RandomBandlimitedIC, SolitonIC)
from superkdv.snapshots import state_from_dict, state_to_dict
from superkdv.symbolic import gardner_coefficients, reproduce_conserved_quantities
from superkdv.transforms import gardner_map, inverse_gardner_series


def gardner_state():
    grid, desc = PeriodicGrid(40.0, 16), AlgebraDescriptor("symplectic", 1)
    return SystemState("gardner", EvenField.zeros(grid, desc), OddField.zeros(grid, desc),
                       epsilon=0.1)


def with_snapshot_key(key):
    def load(value):
        doc = state_to_dict(gardner_state())
        doc[key] = value
        return state_from_dict(doc)
    return load


def fields():
    state = gardner_state()
    return state.even, state.odd


# name in the error, whether the parameter is a whole number, and a call
# that gives it the value
PARAMETERS = {
    "PeriodicGrid L": ("grid length", False, lambda v: PeriodicGrid(v, 16)),
    "PeriodicGrid N": ("grid size", True, lambda v: PeriodicGrid(40.0, v)),
    "AlgebraDescriptor generators": ("generator count", True,
                                     lambda v: AlgebraDescriptor("grassmann", v)),
    "SystemState time": ("time", False, lambda v: SystemState("extended", *fields(), time=v)),
    "SystemState lam": ("lam", False, lambda v: SystemState("extended", *fields(), lam=v)),
    "SystemState epsilon": ("epsilon", False,
                            lambda v: SystemState("gardner", *fields(), epsilon=v)),
    "integrate dt": ("dt", False, lambda v: integrate(gardner_state(), v, 1, force=True)),
    "integrate steps": ("steps", True, lambda v: integrate(gardner_state(), 1e-4, v)),
    "integrate record_every": ("record_every", True,
                               lambda v: integrate(gardner_state(), 1e-4, 2, record_every=v)),
    "SolitonIC kappa": ("kappa", False, lambda v: SolitonIC(kappa=v)),
    "SolitonIC x0": ("x0", False, lambda v: SolitonIC(x0=v)),
    "GaussianIC amplitude": ("amplitude", False, lambda v: GaussianIC(amplitude=v)),
    "GaussianIC width": ("width", False, lambda v: GaussianIC(width=v)),
    "GaussianIC center": ("center", False, lambda v: GaussianIC(center=v)),
    "RandomBandlimitedIC max_mode": ("max_mode", True,
                                     lambda v: RandomBandlimitedIC(max_mode=v)),
    "RandomBandlimitedIC amplitude": ("amplitude", False,
                                      lambda v: RandomBandlimitedIC(amplitude=v)),
    "RandomBandlimitedIC seed": ("seed", True, lambda v: RandomBandlimitedIC(seed=v)),
    "gardner_coefficients order": ("order", True, gardner_coefficients),
    "inverse_gardner_series order": ("order", True,
                                     lambda v: inverse_gardner_series(*fields(), 1.0, 0.1,
                                                                      order=v)),
    "reproduce_conserved_quantities max_order": ("max_order", True,
                                                 reproduce_conserved_quantities),
    **{f"snapshot {key}": (key, key == "N", with_snapshot_key(key))
       for key in ("L", "N", "time", "lambda", "epsilon")},
}

NOT_NUMBERS = {"True": True, "np.True_": np.True_, "text 1": "1",
               "nan": float("nan"), "inf": float("inf")}


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
@pytest.mark.parametrize("parameter", PARAMETERS)
def test_every_numeric_parameter_refuses_what_is_no_number(parameter, value):
    name, whole, call = PARAMETERS[parameter]
    kind = "whole number" if whole else "finite float"
    with pytest.raises(SuperKdVError, match=f"^{re.escape(name)} must be a {kind}, got "):
        call(value)


@pytest.mark.parametrize("parameter", [p for p in PARAMETERS if PARAMETERS[p][1]])
def test_every_whole_number_parameter_refuses_a_fraction(parameter):
    name, _, call = PARAMETERS[parameter]
    with pytest.raises(SuperKdVError, match=f"^{re.escape(name)} must be a whole number, "
                                            "got 2.5$"):
        call(2.5)


@pytest.mark.parametrize("value,kind,expected", [
    (3, float, 3.0), (np.int64(3), float, 3.0), (np.float32(0.5), float, 0.5),
    (-2.5, float, -2.5), (256.0, int, 256), (np.float64(7.0), int, 7),
    (np.uint8(5), int, 5), (12345678901234567891, int, 12345678901234567891)])
def test_finite_number_takes_ints_and_floats_numpys_included(value, kind, expected):
    number = finite_number("x", value, kind)
    assert number == expected and type(number) is kind


@pytest.mark.parametrize("kind", [float, int])
def test_finite_number_refuses_a_huge_int(kind):
    # no OverflowError: 10**400 has no float, so it is no finite number here
    with pytest.raises(SuperKdVError, match=r"^x must be a .*, got 1000"):
        finite_number("x", 10 ** 400, kind)


# a call per finite value that overflows: a term coefficient c lam^p eps^n
# past the floats (Python's float ** int raises OverflowError there), and a
# grid length whose k_max_active ** 3, which the stability guard divides
# by, or whose top mode's k ** 3, which the dispersion holds, is no positive
# finite float
OVERFLOWING = {
    "conserved_quantities": ("lam = 1e+200", lambda: conserved_quantities(*fields(), 1e200)),
    "hamiltonian_density": ("lam = 1e+200", lambda: hamiltonian_density(*fields(), 1e200)),
    "gardner_map": ("epsilon = 1e+200", lambda: gardner_map(*fields(), 1.0, 1e200)),
    "inverse_gardner_series": ("epsilon = 1e+200",
                               lambda: inverse_gardner_series(*fields(), 1.0, 1e200)),
    # eps^10 = 1.05e306 is a float, but the order-10 coefficient 7956 times it is not
    "inverse_gardner_series order 10": ("epsilon = 4e+30", lambda: inverse_gardner_series(
        *fields(), 1.0, 4e30, order=10)),
    "integrate gardner": ("epsilon = 1e+200", lambda: integrate(
        SystemState("gardner", *fields(), lam=1.0, epsilon=1e200), 1e-4, 2)),
    "PeriodicGrid huge L": ("grid length 1e+300", lambda: PeriodicGrid(1e300, 16)),
    "PeriodicGrid tiny L": ("grid length 1e-300", lambda: PeriodicGrid(1e-300, 16)),
    # k_max_active ** 3 is 1.0e308, but the Nyquist mode, 1.6 times
    # k_max_active, cubes past the floats
    "PeriodicGrid tiny L top mode": ("grid length 6.77e-102",
                                     lambda: PeriodicGrid(6.77e-102, 16)),
}


@pytest.mark.parametrize("call", OVERFLOWING)
def test_finite_values_that_overflow_raise_naming_the_parameter(call):
    named, thunk = OVERFLOWING[call]
    with pytest.raises(SuperKdVError, match=f"^{re.escape(named)} "):
        thunk()

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superkdv.algebra import Algebra, AlgebraDescriptor
from superkdv.errors import (DescriptorMismatch, ExpressionSyntaxError, GradingError,
                             NonFiniteFieldError, SuperKdVError)
from superkdv.fields import EvenField, OddField, PeriodicGrid, build_initial_condition, quadrature
from superkdv import symbolic
from superkdv.invariants import conserved_quantities, hamiltonian_density
from superkdv.symbolic import (
    CoefficientTable,
    _live_terms,
    _Program,
    DiffPolynomial,
    commutator,
    conserved_density_poly,
    equal_mod_total_derivative,
    evolutionary_derivative,
    gardner_coefficients,
    instantiate,
    parse,
    reproduce_conserved_quantities,
    to_text,
)
from superkdv.transforms import gardner_map, inverse_gardner_series, miura


def random_fields(backend, seed=0, n=64):
    grid = PeriodicGrid(2 * np.pi, n)
    desc = AlgebraDescriptor.from_string(backend)
    return build_initial_condition(
        f"random_bandlimited(max_mode=3,amplitude=0.5,seed={seed})", grid, desc)


# -- parsing and printing ----------------------------------------------------

def test_parse_examples():
    h2 = parse("u^2 + L*[xi',xi]")
    built = DiffPolynomial.u() * DiffPolynomial.u() \
        + DiffPolynomial.bracket(1, 0).scaled(1, 1)
    assert h2 == built
    assert parse("[xi,xi]").is_zero()
    assert parse("[xi',xi] + [xi,xi']").is_zero()


def test_bracket_orientation():
    assert parse("[xi,xi']") == -parse("[xi',xi]")
    assert parse("[xi'',xi']") == DiffPolynomial.bracket(2, 1)
    assert DiffPolynomial.bracket(3, 3).is_zero()


def test_prime_and_caret_derivatives_agree():
    assert parse("u'''") == parse("u^(3)") == DiffPolynomial.u(3)
    assert parse("xi''") == parse("xi^(2)")
    assert parse("[xi^(1),xi]") == parse("[xi',xi]")


def test_power_versus_derivative_syntax():
    assert parse("u^2") == parse("u*u")
    assert parse("u^(2)") == DiffPolynomial.u(2)
    assert parse("u^(1)^2") == parse("u'*u'")
    assert parse("L^2*u") == DiffPolynomial.u().scaled(1, 2)


def test_rational_literals_exact():
    poly = parse("1/3*u - 2/7")
    assert poly.terms == {((0,), (), None, 0): Fraction(1, 3),
                          ((), (), None, 0): Fraction(-2, 7)}


def test_grammar_level_total_derivative():
    assert parse("D(u^2)") == parse("2*u*u'")
    assert parse("D(u*[xi',xi])") == parse("u'*[xi',xi] + u*[xi'',xi]")


@pytest.mark.parametrize("text", [
    "u^2 + L*[xi',xi]",
    "-3/2*u + L^2*[xi^(3),xi]^2",
    "u''' - 6*u*u' - 3*L*[xi'',xi]",
    "xi'' - u*xi",
    "5*u^4 + 10*u*u'^2 + u''^2",
    "0",
])
def test_parse_print_fixed_point(text):
    once = to_text(parse(text))
    assert to_text(parse(once)) == once


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
orders = st.integers(min_value=0, max_value=4)
comm_pairs = st.tuples(orders, orders).filter(lambda p: p[0] != p[1])


@st.composite
def polynomials(draw, orders=orders, comm_pairs=comm_pairs):
    poly = DiffPolynomial.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        term = DiffPolynomial.constant(draw(coefficients), draw(st.integers(0, 2)))
        for k in draw(st.lists(orders, max_size=3)):
            term = term * DiffPolynomial.u(k)
        for a, b in draw(st.lists(comm_pairs, max_size=2)):
            term = term * DiffPolynomial.bracket(a, b)
        if draw(st.booleans()):
            term = term * DiffPolynomial.xi(draw(orders))
        poly = poly + term
    return poly


@given(polynomials())
@settings(max_examples=100, deadline=None)
def test_print_parse_roundtrip(poly):
    assert parse(to_text(poly)) == poly


@pytest.mark.parametrize("text", [
    "u +",
    "u^(x)",
    "[xi,",
    "[u,xi]",
    "xi*xi",
    "u*)",
    "u ^ -1",
    "w",
    "xi^2",
    "²",  # a digit to str.isdigit, but no decimal that int() reads
    "3*u^(²)",
])
def test_syntax_errors_carry_position(text):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text)
    assert isinstance(err.value.position, int)
    assert 0 <= err.value.position <= len(text)
    assert "position" in str(err.value)


def test_odd_product_rejected_in_ring():
    with pytest.raises(GradingError):
        DiffPolynomial.xi(1) * DiffPolynomial.xi(0)
    with pytest.raises(GradingError):
        commutator(DiffPolynomial.u(), DiffPolynomial.xi())


# -- calculus ----------------------------------------------------------------

def test_total_derivative_rules():
    assert parse("u^2").differentiate_total() == parse("2*u*u^(1)")
    assert parse("[xi,xi']").differentiate_total() == parse("[xi,xi'']")
    assert parse("u*[xi',xi]").differentiate_total() \
        == parse("u^(1)*[xi',xi] + u*[xi'',xi]")
    assert parse("xi''").differentiate_total() == parse("xi'''")
    assert DiffPolynomial.zero().differentiate_total().is_zero()


@pytest.mark.parametrize("backend", ["grassmann:3", "grassmann:4", "symplectic:2"])
@pytest.mark.parametrize("text", [
    "u^3 + u*u'^2",
    "u*[xi'',xi] + L*[xi',xi]^2",
    "u^2*xi' + L*[xi',xi]*xi''",
])
def test_total_derivative_integrates_to_zero(backend, text):
    u, xi = random_fields(backend, seed=7)
    dpoly = parse(text).differentiate_total()
    residual = quadrature(instantiate(dpoly, u, xi, 1.3)).norm()
    assert residual <= 1e-10


def test_commutator_of_odd_polynomials():
    left = parse("u*xi' + xi''")
    right = parse("xi")
    expected = parse("u*[xi',xi] + [xi'',xi]")
    assert commutator(left, right) == expected
    assert commutator(right, left) == -expected


# -- numeric instantiation ----------------------------------------------------

def unit_field(u):
    unit = EvenField.zeros(u.grid, u.descriptor)
    unit.data[0] = 1.0
    return unit


# text -> the same polynomial written with field arithmetic
EVEN_CASES = {
    "2*u^3 + u'^2 + 4*L*u*[xi',xi] + L*[xi'',xi']":
        lambda u, xi, lam: (2.0 * (u * u * u) + u.derivative() * u.derivative()
                            + 4.0 * lam * (u * xi.derivative().commutator(xi))
                            + lam * xi.derivative(2).commutator(xi.derivative())),
    "7/2": lambda u, xi, lam: 3.5 * unit_field(u),
    "-2*u''": lambda u, xi, lam: -2.0 * u.derivative(2),
    "2 + u'' - 3*L*[xi',xi]":
        lambda u, xi, lam: (2.0 * unit_field(u) + u.derivative(2)
                            - (3.0 * lam) * xi.derivative().commutator(xi)),
    # one monomial at several powers of L
    "u*[xi',xi] + 2*L*u*[xi',xi] - L^2*u*[xi',xi]":
        lambda u, xi, lam: (1.0 + 2.0 * lam - lam * lam) * (u * xi.derivative().commutator(xi)),
}

ODD_CASES = {
    "xi'' - u*xi": lambda u, xi: xi.derivative(2) - u * xi,
    "3*xi'": lambda u, xi: 3.0 * xi.derivative(),
    "xi''' + u*xi": lambda u, xi: xi.derivative(3) + u * xi,
}


@pytest.mark.parametrize("backend", ["scalar", "grassmann:3", "grassmann:4", "symplectic:2"])
@pytest.mark.parametrize("text", EVEN_CASES)
def test_instantiation_matches_field_arithmetic(backend, text):
    # constants, linear u^(k) and lone brackets included
    u, xi = random_fields(backend, seed=3)
    lam = 0.75
    direct = EVEN_CASES[text](u, xi, lam)
    got = instantiate(parse(text), u, xi, lam)
    assert isinstance(got, EvenField)
    assert (got - direct).norm() <= 1e-12 * max(direct.norm(), 1.0)


@pytest.mark.parametrize("backend", ["scalar", "grassmann:3", "symplectic:2"])
@pytest.mark.parametrize("text", ODD_CASES)
def test_instantiation_odd_polynomial(backend, text):
    # bare xi^(c) included
    u, xi = random_fields(backend, seed=5)
    got = instantiate(parse(text), u, xi, 0.0)
    direct = ODD_CASES[text](u, xi)
    assert isinstance(got, OddField)
    assert (got - direct).norm() <= 1e-12 * max(direct.norm(), 1.0)


@pytest.mark.parametrize("where", ["u", "xi"])
@pytest.mark.parametrize("evaluate", [
    lambda u, xi: instantiate(parse("u^2"), u, xi, 1.0),
    lambda u, xi: instantiate(parse("u*xi"), u, xi, 1.0),
    lambda u, xi: instantiate(parse("u'^2"), u, xi, 1.0),
    lambda u, xi: conserved_quantities(u, xi, 1.0),
    lambda u, xi: hamiltonian_density(u, xi, 1.0),
    lambda u, xi: miura(u, xi, 1.0),
    lambda u, xi: gardner_map(u, xi, 1.0, 0.1),
    lambda u, xi: inverse_gardner_series(u, xi, 1.0, 0.1, order=4),
], ids=["instantiate u^2", "instantiate u*xi", "instantiate u'^2", "conserved_quantities",
        "hamiltonian_density", "miura", "gardner_map", "inverse_gardner_series"])
def test_non_finite_fields_are_refused(evaluate, where):
    # every evaluation checks each sample it is given, not only those it
    # differentiates
    u, xi = random_fields("grassmann:3")
    (u if where == "u" else xi).data[1, 7] = np.nan
    with pytest.raises(NonFiniteFieldError):
        evaluate(u, xi)


def test_instantiation_rejects_mixed_grading():
    u, xi = random_fields("grassmann:3")
    with pytest.raises(GradingError):
        instantiate(parse("u + xi"), u, xi, 1.0)


def test_evaluations_reject_fields_over_other_backends():
    u, xi = random_fields("grassmann:3")
    _, xi4 = random_fields("grassmann:4")
    for evaluate in (lambda: instantiate(parse("u*xi"), u, xi4, 1.0),
                     lambda: conserved_quantities(u, xi4, 1.0),
                     lambda: miura(u, xi4, 1.0)):
        with pytest.raises(DescriptorMismatch):
            evaluate()
    # a program compiled for one backend refuses fields over another
    program = _Program.compile([parse("u^2")], u.grid, u.descriptor, 1.0)
    with pytest.raises(DescriptorMismatch):
        program(*random_fields("grassmann:4"))


def test_shared_argument_bracket_square_instantiates_to_zero():
    # [xi',xi]^2 = 0 in every admissible backend: the exchange identity
    # with a repeated argument forces the product to equal its negative.
    for backend in ("grassmann:4", "symplectic:2"):
        u, xi = random_fields(backend, seed=11)
        sq = instantiate(parse("[xi',xi]^2"), u, xi, 1.0)
        assert sq.norm() <= 1e-13


def test_distinct_argument_bracket_product_needs_wide_backend():
    # products of brackets over four independent arguments vanish on
    # grassmann:3 and symplectic:2 but not on grassmann:4
    poly = parse("[xi^(3),xi^(2)]*[xi',xi]")
    for backend in ("grassmann:3", "symplectic:2"):
        u, xi = random_fields(backend, seed=2)
        assert instantiate(poly, u, xi, 1.0).norm() <= 1e-13
    u, xi = random_fields("grassmann:4", seed=2)
    assert instantiate(poly, u, xi, 1.0).norm() > 1e-6
    # the exact decision needs no backend at all
    verdict = equal_mod_total_derivative(poly, DiffPolynomial.zero())
    assert not verdict.equal
    assert verdict.witness == "[xi^(1),xi]*[xi^(3),xi^(2)]"


# a bracket times one of its own arguments: zero on every backend, as
# [q1, q2] q3 is totally antisymmetric
VANISHING = ("[xi',xi]*xi'", "[xi',xi]*xi", "[xi'',xi]*xi", "[xi'',xi]*xi''",
             "L*[xi'',xi']*xi' - 1/2*[xi,xi'']*xi")


@pytest.mark.parametrize("backend", ["grassmann:3", "grassmann:4", "grassmann:6",
                                     "symplectic:2"])
def test_bracket_times_its_argument_compiles_to_exact_zeros(backend, monkeypatch):
    u, xi = random_fields(backend, seed=3)
    scale = max(xi.derivative(k).norm() for k in range(3)) ** 3
    for text in VANISHING:
        assert _live_terms(parse(text), 1.3, u.descriptor) == []
        assert not instantiate(parse(text), u, xi, 1.3).data.any()
    # the kept term has a third argument; symplectic annihilates it too
    kept = instantiate(parse("[xi',xi]*xi''"), u, xi, 1.3).norm()
    assert kept > 1e-3 * scale if backend.startswith("grassmann") else kept == 0.0
    # the free form, as a backend without the proof compiles it, is
    # roundoff of the field scale
    monkeypatch.setattr(Algebra, "bracket_product_alternates", property(lambda self: False))
    for text in VANISHING:
        assert _live_terms(parse(text), 1.3, u.descriptor)
        assert instantiate(parse(text), u, xi, 1.3).norm() <= 1e-15 * scale


def test_bracket_times_its_argument_kept_beside_further_factors():
    # with an even factor beside the bracket, the product is only zero
    # given mixed associativity, which no exact proof covers: it is kept
    u, xi = random_fields("grassmann:3", seed=3)
    assert len(_live_terms(parse("u*[xi',xi]*xi'"), 1.0, u.descriptor)) == 1
    assert len(_live_terms(parse("[xi',xi]*[xi'',xi]*xi"), 1.0, u.descriptor)) == 1


# -- equality modulo total derivatives -----------------------------------------

def test_equivalence_accepts_total_derivative_shift():
    p = parse("u*u'' + L*u*[xi',xi]")
    q = p + parse("D(u^3 + u*[xi',xi] + L*[xi'',xi])")
    verdict = equal_mod_total_derivative(p, q)
    assert verdict.equal
    assert bool(verdict)


def test_equivalence_detects_difference_with_witness():
    # u u'' + u'^2 = D(u u'), so u u'' - u'^2 is -2 u'^2 modulo D
    verdict = equal_mod_total_derivative(parse("u*u''"), parse("u'^2"))
    assert not verdict.equal and not verdict
    assert verdict.witness == "u*u^(2) - u^(1)^2"
    assert repr(verdict) == "different (witness u*u^(2) - u^(1)^2)"
    assert repr(equal_mod_total_derivative(parse("u*u''"), parse("-u'^2"))) == "equal (exact)"


def test_equivalence_ignores_the_seed():
    # the seed is accepted and has no effect: the decision draws nothing
    for p, q in ((parse("u*u''"), parse("u'^2")), (parse("u*u''"), parse("-u'^2"))):
        verdicts = [equal_mod_total_derivative(p, q, seed=seed) for seed in (None, 0, 42)]
        assert len({(v.equal, v.witness) for v in verdicts}) == 1


def test_equivalence_rejects_odd_input():
    with pytest.raises(GradingError):
        equal_mod_total_derivative(parse("xi'"), DiffPolynomial.zero())
    with pytest.raises(GradingError):
        equal_mod_total_derivative(parse("u"), parse("u*xi + u"))


def test_order_zero_terms_are_no_total_derivative():
    # D raises the order, so nothing of order 0 is in its image
    for text in ("u", "u^3", "2", "L*u^2"):
        verdict = equal_mod_total_derivative(parse(text), DiffPolynomial.zero())
        assert not verdict.equal and verdict.witness == to_text(parse(text))


def test_witness_is_the_first_group_outside_the_image():
    # u'^2 + L [xi'', xi'] + u u'' is L [xi'', xi'] modulo D: the u group
    # is D(u u'), and [xi'', xi'] is no total derivative (the only bracket
    # of order 2 is [xi'', xi], and D of it is [xi''', xi] + [xi'', xi'])
    verdict = equal_mod_total_derivative(parse("u'^2 + L*[xi'',xi']"), parse("-u*u''"))
    assert (verdict.equal, verdict.witness) == (False, "L*[xi^(2),xi^(1)]")
    assert equal_mod_total_derivative(parse("[xi''',xi] + [xi'',xi']"), parse("0")).equal


def test_decisions_evaluate_and_draw_nothing(monkeypatch):
    # equal_mod_total_derivative and reproduce_conserved_quantities are
    # rational eliminations: no program is compiled and no field drawn
    def refuse(*args, **kwargs):
        raise AssertionError("a numeric evaluation ran")

    monkeypatch.setattr(_Program, "compile", classmethod(refuse))
    monkeypatch.setattr(np.random, "default_rng", refuse)
    rate = evolutionary_derivative(conserved_density_poly(6))
    assert equal_mod_total_derivative(rate, DiffPolynomial.zero()).equal
    assert reproduce_conserved_quantities(max_order=6).all_ok


# orders up to 2 keep each grade's elimination small: its monomials grow
# steeply with the order
low_orders = st.integers(min_value=0, max_value=2)
low_polynomials = polynomials(low_orders, st.tuples(low_orders, low_orders).filter(
    lambda p: p[0] != p[1]))
even_polynomials = low_polynomials.map(lambda poly: DiffPolynomial(
    {key: c for key, c in poly.terms.items() if key[2] is None}))


@given(even_polynomials, even_polynomials)
@settings(max_examples=60, deadline=None)
def test_adding_a_total_derivative_keeps_the_class(p, q):
    assert equal_mod_total_derivative(p + q.differentiate_total(), p).equal
    assert equal_mod_total_derivative(q.differentiate_total(), DiffPolynomial.zero()).equal


def euler_operator(poly):
    """The variational derivative of a polynomial in u alone: the sum
    over k of (-D)^k of its partial derivative by u^(k)."""
    out = DiffPolynomial.zero()
    for (even, _, _, power), c in poly.terms.items():
        for i, k in enumerate(even):
            partial = DiffPolynomial({(even[:i] + even[i + 1:], (), None, power): c})
            for _ in range(k):
                partial = -partial.differentiate_total()
            out = out + partial
    return out


u_polynomials = low_polynomials.map(lambda poly: DiffPolynomial(
    {key: c for key, c in poly.terms.items() if key[0] and not key[1] and key[2] is None}))


@given(u_polynomials, u_polynomials)
@settings(max_examples=60, deadline=None)
def test_decision_agrees_with_the_euler_operator(p, q):
    # without constants, a polynomial in u alone is a total derivative
    # exactly when its variational derivative vanishes; q's derivative
    # makes the true verdicts common
    poly = p + q.differentiate_total()
    assert equal_mod_total_derivative(poly, DiffPolynomial.zero()).equal \
        == euler_operator(poly).is_zero()


def test_random_bandlimited_fields_keep_their_draws():
    # the samples equal, bit for bit, the random_bandlimited formula
    # written out here: per channel two uniform draws on the cos and sin
    # bases, each field then scaled to peak amplitude
    grid = PeriodicGrid(2 * np.pi, 64)
    modes = np.arange(4)
    basis_cos = np.cos(2.0 * np.pi * np.outer(modes, grid.x) / grid.L)
    basis_sin = np.sin(2.0 * np.pi * np.outer(modes, grid.x) / grid.L)
    for backend, seed in (("grassmann:3", 11), ("symplectic:2", 12), ("scalar", 13)):
        desc = AlgebraDescriptor.from_string(backend)
        got = build_initial_condition(
            f"random_bandlimited(max_mode=3,amplitude=0.6,seed={seed})", grid, desc)
        rng = np.random.default_rng(seed)
        for dim, field in zip((desc.even_dim, desc.odd_dim), got):
            data = np.zeros((dim, grid.N))
            for ch in range(dim):
                a = rng.uniform(-1.0, 1.0, len(modes))
                b = rng.uniform(-1.0, 1.0, len(modes))
                data[ch] = a @ basis_cos + b @ basis_sin
            peak = np.max(np.abs(data)) if data.size else 0.0
            if peak > 0:
                data *= 0.6 / peak
            assert np.array_equal(field.data, data)


# -- deformation coefficients ---------------------------------------------------

def test_gardner_coefficient_leading_orders():
    coeffs = gardner_coefficients(2)
    assert coeffs[0][0] == parse("u")
    assert coeffs[0][1] == parse("xi")
    assert coeffs[1][0] == parse("-u'")
    assert coeffs[1][1] == parse("-xi'")
    assert coeffs[2][0] == parse("u'' - u^2 - L*[xi',xi]")
    assert coeffs[2][1] == parse("xi'' - u*xi")


def test_gardner_order_limit():
    from superkdv.transforms import inverse_gardner_series

    with pytest.raises(SuperKdVError):
        gardner_coefficients(11)
    u, xi = random_fields("grassmann:3")
    with pytest.raises(SuperKdVError):
        inverse_gardner_series(u, xi, 1.0, 0.1, order=11)


def test_gardner_grading_preserved():
    for z, s in gardner_coefficients(6):
        assert z.is_even()
        assert s.is_odd()


def numeric_inverse_series(u, xi, lam, eps, order):
    """The inverse-deformation recursion written out in field arithmetic,
    as an independent reference for the symbolic coefficients."""
    zs, ss = [u], [xi]
    for n in range(1, order + 1):
        zn = -zs[n - 1].derivative(1)
        sn = -ss[n - 1].derivative(1)
        for a in range(n - 1):
            b = n - 2 - a
            zn = zn - zs[a] * zs[b]
            zn = zn + (-lam) * ss[a].derivative(1).commutator(ss[b])
            sn = sn - zs[a] * ss[b]
        zs.append(zn)
        ss.append(sn)
    z, s = zs[0], ss[0]
    for n in range(1, order + 1):
        z = z + (eps ** n) * zs[n]
        s = s + (eps ** n) * ss[n]
    return z, s


def test_symbolic_matches_numeric_inverse_series():
    from superkdv.transforms import inverse_gardner_series

    u, xi = random_fields("grassmann:3", seed=9, n=128)
    lam, eps, order = 0.8, 0.3, 4
    z_num, s_num = numeric_inverse_series(u, xi, lam, eps, order)
    z_sym, s_sym = inverse_gardner_series(u, xi, lam, eps, order=order)
    assert (z_sym - z_num).norm() <= 1e-10 * max(z_num.norm(), 1.0)
    assert (s_sym - s_num).norm() <= 1e-10 * max(s_num.norm(), 1.0)


def test_deformation_integrals_match_conserved_family():
    coeffs = gardner_coefficients(10)
    zero = DiffPolynomial.zero()
    for n in (1, 3, 5, 7, 9):
        assert equal_mod_total_derivative(coeffs[n][0], zero).equal
    frozen = {0: Fraction(1), 2: Fraction(-1), 4: Fraction(1), 6: Fraction(-1)}
    for n, c in frozen.items():
        density = conserved_density_poly(n)
        assert equal_mod_total_derivative(coeffs[n][0], density.scaled(c)).equal
        assert not equal_mod_total_derivative(coeffs[n][0], density.scaled(-c)).equal


@pytest.mark.parametrize("n", [8, 10])
def test_higher_deformation_integrals_are_conserved(n):
    # no H_8 or H_10 is tabulated, but z_8 and z_10 are conserved densities
    rate = evolutionary_derivative(gardner_coefficients(n)[n][0])
    assert equal_mod_total_derivative(rate, DiffPolynomial.zero()).equal


def test_reproduction_table_matches_frozen_constants():
    table = reproduce_conserved_quantities(max_order=6)
    assert isinstance(table, CoefficientTable)
    assert table.odd_orders_vanish
    assert table.all_ok
    got = {e["n"]: e["c"] for e in table.entries}
    assert got == {0: Fraction(1), 2: Fraction(-1),
                   4: Fraction(1), 6: Fraction(-1)}
    assert all(e["verified"] for e in table.entries)
    assert "order" in str(table)
    assert table.as_dict()["entries"][1]["c"] == "-1"


def test_reproduction_rejects_odd_or_large_order():
    with pytest.raises(SuperKdVError):
        reproduce_conserved_quantities(max_order=5)
    with pytest.raises(SuperKdVError):
        reproduce_conserved_quantities(max_order=10)
    # a negative order gave an empty table that passed
    with pytest.raises(SuperKdVError, match="nonnegative"):
        reproduce_conserved_quantities(max_order=-2)
    # H_8 is not tabulated, so order 8 must be refused
    with pytest.raises(SuperKdVError, match="at most 6"):
        reproduce_conserved_quantities(max_order=8)
    with pytest.raises(SuperKdVError, match="max_order"):
        reproduce_conserved_quantities(max_order=2.5)


def test_reproduction_takes_an_integral_float_order():
    table = reproduce_conserved_quantities(max_order=2.0)
    assert table.all_ok and [e["n"] for e in table.entries] == [0, 2]


def test_reproduction_refutes_a_density_without_its_bracket_square(monkeypatch):
    # H6 without 3 L^2 [xi', xi]^2 is c z_6 modulo D for no c, although
    # the term vanishes on every backend
    truncated = symbolic._DENSITY_TEXTS["H6"].replace(" + 3*L^2*[xi',xi]^2", "")
    assert truncated != symbolic._DENSITY_TEXTS["H6"]
    monkeypatch.setitem(symbolic._DENSITY_TEXTS, "H6", truncated)
    symbolic.density_poly.cache_clear()
    try:
        table = reproduce_conserved_quantities(max_order=6)
    finally:
        monkeypatch.undo()
        symbolic.density_poly.cache_clear()
    assert [e["verified"] for e in table.entries] == [True, True, True, False]
    assert not table.all_ok


# -- conservation along the flow ------------------------------------------------

def test_evolutionary_derivative_of_the_fields_is_the_extended_flow():
    assert evolutionary_derivative(parse("u")) == parse(
        "-u''' + 6*u*u' + 3*L*[xi'',xi]")
    assert evolutionary_derivative(parse("xi")) == parse("-xi''' + 3*D(u*xi)")


@pytest.mark.parametrize("n", [0, 2, 4, 6])
def test_conserved_densities_have_vanishing_time_derivative(n):
    rate = evolutionary_derivative(conserved_density_poly(n))
    assert equal_mod_total_derivative(rate, DiffPolynomial.zero()).equal


def test_non_conserved_density_detected():
    rate = evolutionary_derivative(parse("u^2 + u'^2"))
    assert not equal_mod_total_derivative(rate, DiffPolynomial.zero()).equal


def test_h6_needs_its_bracket_square_term():
    # 3 L^2 [xi', xi]^2 vanishes on every backend, but in the free model
    # H6 without it is not conserved: the decision sees the L^2 sector
    truncated = conserved_density_poly(6) - parse("3*L^2*[xi',xi]^2")
    verdict = equal_mod_total_derivative(evolutionary_derivative(truncated),
                                         DiffPolynomial.zero())
    assert not verdict.equal and verdict.witness.startswith("-6*L^2*")

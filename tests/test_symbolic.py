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
    MC_BACKENDS,
    MC_GRID,
    MC_MAX_MODE,
    MC_WIDTH,
    CoefficientTable,
    _live_terms,
    _Program,
    _trial_draws,
    _trial_quadratures,
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
def polynomials(draw):
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
    lambda u, xi: conserved_quantities(u, xi, 1.0, ("H0", "H2")),
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
    # products of brackets over four independent arguments vanish on the
    # default Monte Carlo backends but not on grassmann:4
    poly = parse("[xi^(3),xi^(2)]*[xi',xi]")
    for backend in ("grassmann:3", "symplectic:2"):
        u, xi = random_fields(backend, seed=2)
        assert instantiate(poly, u, xi, 1.0).norm() <= 1e-13
    u, xi = random_fields("grassmann:4", seed=2)
    assert instantiate(poly, u, xi, 1.0).norm() > 1e-6
    verdict = equal_mod_total_derivative(poly, DiffPolynomial.zero(),
                                         backends=("grassmann:4",))
    assert not verdict.equal


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
    verdict = equal_mod_total_derivative(parse("u*u''"), parse("u'^2"))
    assert not verdict.equal
    witness = verdict.witness
    assert witness["residual"] > verdict.tol * witness["scale"]
    assert witness["backend"] in ("grassmann:3", "symplectic:2")
    assert -2.0 <= witness["lambda"] <= 2.0


def test_equivalence_is_seed_deterministic():
    v1 = equal_mod_total_derivative(parse("u*u''"), parse("u'^2"), seed=42)
    v2 = equal_mod_total_derivative(parse("u*u''"), parse("u'^2"), seed=42)
    assert v1.witness == v2.witness


def test_equivalence_rejects_odd_input():
    with pytest.raises(GradingError):
        equal_mod_total_derivative(parse("xi'"), DiffPolynomial.zero())


def test_equivalence_needs_a_trial():
    # no trial confirms nothing: u is not a total derivative.  A NaN or
    # infinite tol would confirm it, a negative one refute everything, and
    # no backend leaves nothing to draw a trial from.
    for trials in (0, -1, 1.5):
        with pytest.raises(SuperKdVError, match="trials"):
            equal_mod_total_derivative(parse("u"), parse("0"), trials=trials)
    for tol in (float("nan"), float("inf"), -1e-8):
        with pytest.raises(SuperKdVError, match="tol"):
            equal_mod_total_derivative(parse("u"), parse("0"), tol=tol)
    with pytest.raises(SuperKdVError, match="backend"):
        equal_mod_total_derivative(parse("u"), parse("0"), backends=())
    assert not equal_mod_total_derivative(parse("u"), parse("0"), trials=1)
    one = equal_mod_total_derivative(parse("u*u''"), parse("-u'^2"), trials=1)
    assert one.equal and one.trials == 1


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("kwargs,setting", [
    ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"), ({"trials": True}, "trials"),
    ({"backends": "grassmann:3"}, "backends")])
def test_monte_carlo_settings_are_refused_before_any_trial(kwargs, setting, monkeypatch):
    # a bare string is not a sequence of descriptors, True is not a count,
    # and a trial seed must be a nonnegative whole number
    monkeypatch.setattr(symbolic, "_trial_quadratures", _no_trial)
    with pytest.raises(SuperKdVError, match=setting):
        equal_mod_total_derivative(parse("u"), parse("0"), **kwargs)
    if setting != "backends":
        with pytest.raises(SuperKdVError, match=setting):
            reproduce_conserved_quantities(max_order=2, **kwargs)


def test_one_compile_per_backend_drawn(monkeypatch):
    # each decision compiles its polynomials once per backend it draws,
    # also when the trials of a backend take several batches
    compile_, calls = _Program.compile.__func__, []

    def counted(cls, polys, grid, descriptor, lam, width=1):
        calls.append(str(descriptor))
        return compile_(cls, polys, grid, descriptor, lam, width)

    monkeypatch.setattr(_Program, "compile", classmethod(counted))
    rate = evolutionary_derivative(conserved_density_poly(6))
    for trials in (32, 3 * MC_WIDTH):
        calls.clear()
        assert equal_mod_total_derivative(rate, DiffPolynomial.zero(), trials=trials).equal
        drawn = {backend for _, backend, _ in _trial_draws(0, trials, MC_BACKENDS)}
        assert sorted(calls) == sorted(drawn)


@pytest.mark.parametrize("backend", ["grassmann:3", "symplectic:2"])
def test_batched_quadratures_match_one_compile_per_trial(backend):
    # 40 trials of one backend run as a full batch of MC_WIDTH and a batch
    # of 8; each equals its own program compiled at its own coupling
    polys = [conserved_density_poly(4), gardner_coefficients(4)[4][0],
             evolutionary_derivative(conserved_density_poly(2))]
    grid, desc = PeriodicGrid(*MC_GRID), AlgebraDescriptor.from_string(backend)
    draws = _trial_draws(7, MC_WIDTH + 8, (backend,))
    batched = list(_trial_quadratures(polys, draws))
    assert len(batched) == len(draws)
    for (trial_seed, _, lam), got in zip(draws, batched):
        u, xi = build_initial_condition(
            f"random_bandlimited(max_mode={MC_MAX_MODE},amplitude=0.6,seed={trial_seed})",
            grid, desc)
        want = np.array([quadrature(value).coords
                         for value in _Program.compile(polys, grid, desc, lam)(u, xi)])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_trial_fields_share_one_basis_and_keep_their_draws(monkeypatch):
    # 40 draws over both Monte Carlo backends: the samples each trial runs
    # on equal, bit for bit, the random_bandlimited formula written out
    # here (per channel two uniform draws on the cos and sin bases, each
    # field scaled to peak 0.6), and the bases are made once per call
    grid = PeriodicGrid(*MC_GRID)
    draws = _trial_draws(11, 40, MC_BACKENDS)
    assert {backend for _, backend, _ in draws} == set(MC_BACKENDS)
    bases, runs = [], []
    basis = symbolic.RandomBandlimitedIC.basis
    evaluate = _Program.evaluate
    monkeypatch.setattr(symbolic.RandomBandlimitedIC, "basis",
                        lambda self, g: bases.append(g) or basis(self, g))
    monkeypatch.setattr(_Program, "evaluate", lambda self: (
        runs.append((str(self.algebra.descriptor), self.samples[:self.n_rows].copy())),
        evaluate(self))[-1])
    list(_trial_quadratures([conserved_density_poly(2)], draws))
    assert len(bases) == 1
    modes = np.arange(MC_MAX_MODE + 1)
    basis_cos = np.cos(2.0 * np.pi * np.outer(modes, grid.x) / grid.L)
    basis_sin = np.sin(2.0 * np.pi * np.outer(modes, grid.x) / grid.L)

    def formula(trial_seed, desc):
        rng = np.random.default_rng(trial_seed)
        fields = []
        for dim in (desc.even_dim, desc.odd_dim):
            data = np.zeros((dim, grid.N))
            for ch in range(dim):
                a = rng.uniform(-1.0, 1.0, len(modes))
                b = rng.uniform(-1.0, 1.0, len(modes))
                data[ch] = a @ basis_cos + b @ basis_sin
            peak = np.max(np.abs(data)) if data.size else 0.0
            if peak > 0:
                data *= 0.6 / peak
            fields.append(data)
        return np.concatenate(fields)

    runs, checked = iter(runs), 0
    for start in range(0, len(draws), MC_WIDTH):
        batch = draws[start:start + MC_WIDTH]
        for _ in {backend for _, backend, _ in batch}:
            backend, samples = next(runs)
            desc = AlgebraDescriptor.from_string(backend)
            seeds = [trial_seed for trial_seed, drawn_on, _ in batch if drawn_on == backend]
            for slot, trial_seed in enumerate(seeds):
                assert np.array_equal(samples[:, slot], formula(trial_seed, desc))
                checked += 1
    assert checked == len(draws) and next(runs, None) is None


def test_refuted_pair_keeps_its_witness():
    # u'^2 + L [xi'', xi'] + u u'' is L [xi'', xi'] modulo D.  At tol 0.7
    # and seed 5 the first four trials pass and the fifth refutes, with the
    # seed, backend and coupling it had when each trial compiled its own
    # program
    verdict = equal_mod_total_derivative(parse("u'^2 + L*[xi'',xi']"), parse("-u*u''"),
                                         tol=0.7, seed=5)
    witness = verdict.witness
    assert (verdict.equal, verdict.trials) == (False, 5)
    assert (witness["seed"], witness["backend"], witness["lambda"]) == (
        248711466137453627, "grassmann:3", -1.095543113649542)
    assert witness["residual"] == pytest.approx(5.613104853196015, rel=1e-12)
    assert witness["scale"] == pytest.approx(7.734577256546508, rel=1e-12)


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
    coeffs = gardner_coefficients(6)
    zero = DiffPolynomial.zero()
    for n in (1, 3, 5):
        assert equal_mod_total_derivative(coeffs[n][0], zero).equal
    frozen = {0: Fraction(1), 2: Fraction(-1), 4: Fraction(1), 6: Fraction(-1)}
    for n, c in frozen.items():
        density = conserved_density_poly(n).scaled(c)
        assert equal_mod_total_derivative(coeffs[n][0], density).equal


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
    # H_8 is not tabulated, so order 8 must be refused before any trial runs
    with pytest.raises(SuperKdVError, match="at most 6"):
        reproduce_conserved_quantities(max_order=8)
    with pytest.raises(SuperKdVError, match="max_order"):
        reproduce_conserved_quantities(max_order=2.5)


def test_reproduction_takes_an_integral_float_order():
    table = reproduce_conserved_quantities(max_order=2.0)
    assert table.all_ok and [e["n"] for e in table.entries] == [0, 2]


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

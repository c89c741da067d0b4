"""Algebra backend tests.

The Grassmann product is cross-checked against a brute-force oracle that
multiplies monomials as sorted index tuples and counts transpositions by
actual insertion, sharing no code with the bitmask implementation.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superkdv import algebra
from superkdv.algebra import (Algebra, AlgebraDescriptor, EvenValue, OddValue, ProductTable,
                              fold_into, get_algebra, validate_algebra, value_norm)
from superkdv.cli import DEFAULT_VALIDATION_SET
from superkdv.errors import DescriptorMismatch, GradingError, SuperKdVError


def oracle_mul(mono1, mono2):
    """Multiply two Grassmann monomials given as ascending index tuples.

    Returns (sign, monomial) or (0, None) when a generator repeats.
    """
    seq = list(mono1) + list(mono2)
    sign = 1
    # insertion sort, one transposition at a time
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    if any(seq[i] == seq[i + 1] for i in range(len(seq) - 1)):
        return 0, None
    return sign, tuple(seq)


def masks_by_parity(n):
    evens = [m for m in range(2 ** n) if bin(m).count("1") % 2 == 0]
    odds = [m for m in range(2 ** n) if bin(m).count("1") % 2 == 1]
    return evens, odds


def mask_to_tuple(m):
    return tuple(b for b in range(m.bit_length()) if m >> b & 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grassmann_products_match_bruteforce_oracle(n):
    d = AlgebraDescriptor("grassmann", n)
    alg = get_algebra(d)
    evens, odds = masks_by_parity(n)
    groups = {"ee": (evens, evens), "eo": (evens, odds), "oo": (odds, odds)}
    for name, (left, right) in groups.items():
        for ia, ma in enumerate(left):
            for ib, mb in enumerate(right):
                sign, mono = oracle_mul(mask_to_tuple(ma), mask_to_tuple(mb))
                a = np.zeros(len(left))
                b = np.zeros(len(right))
                a[ia] = b[ib] = 1.0
                if name == "ee":
                    got = alg.even_mul(a, b)
                    out_basis = evens
                elif name == "eo":
                    got = alg.mixed_mul(a, b)
                    out_basis = odds
                else:
                    got = alg.odd_mul(a, b)
                    out_basis = evens
                want = np.zeros(len(out_basis))
                if sign != 0:
                    mask = sum(1 << b_ for b_ in mono)
                    want[out_basis.index(mask)] = sign
                assert np.array_equal(got, want), (name, ma, mb)


def test_grassmann_commutator_is_twice_product_on_random_elements():
    alg = get_algebra(AlgebraDescriptor("grassmann", 4))
    rng = np.random.default_rng(3)
    for _ in range(10):
        q1 = rng.uniform(-1, 1, 8)
        q2 = rng.uniform(-1, 1, 8)
        dev = value_norm(alg.odd_commutator(q1, q2) - 2 * alg.odd_mul(q1, q2))
        assert dev <= 1e-14  # exact on basis pairs, roundoff on combinations


def test_grassmann2_unit_minus_top_square():
    # (1 + t1t2)(1 - t1t2) = 1 because (t1t2)^2 = 0
    d = AlgebraDescriptor("grassmann", 2)
    a = EvenValue(d, [1.0, 1.0])
    b = EvenValue(d, [1.0, -1.0])
    assert (a * b) == EvenValue.unit(d)


def test_grassmann3_mixed_example():
    # (t1t2) * t3 = t1t2t3
    d = AlgebraDescriptor("grassmann", 3)
    evens, odds = masks_by_parity(3)
    a = np.zeros(4)
    a[evens.index(0b011)] = 1.0
    q = np.zeros(4)
    q[odds.index(0b100)] = 1.0
    got = get_algebra(d).mixed_mul(a, q)
    want = np.zeros(4)
    want[odds.index(0b111)] = 1.0
    assert np.array_equal(got, want)


def test_grassmann_odd_mul_basics():
    d = AlgebraDescriptor("grassmann", 3)
    t1 = OddValue(d, [1, 0, 0, 0])
    t2 = OddValue(d, [0, 1, 0, 0])
    t1t2 = EvenValue(d, [0, 1, 0, 0])
    assert t1.odd_mul(t2) == t1t2
    assert t1.odd_mul(t1) == EvenValue.zero(d)
    assert t2.odd_mul(t1) == -t1t2
    assert t1.commutator(t2) == 2.0 * t1t2


def test_symplectic_commutator_and_nil():
    d = AlgebraDescriptor("symplectic", 2)
    alg = get_algebra(d)
    assert d.even_dim == 2 and d.odd_dim == 4
    nil = np.array([0.0, 1.0])
    e = np.eye(4)
    # [e_i, e_(n+i)] = nil, all other basis pairs vanish
    for i in range(4):
        for j in range(4):
            got = alg.odd_commutator(e[i], e[j])
            if j == i + 2:
                assert np.array_equal(got, nil)
            elif i == j + 2:
                assert np.array_equal(got, -nil)
            else:
                assert np.array_equal(got, np.zeros(2))
    # nil annihilates both nil and Q
    assert np.array_equal(alg.even_mul(nil, nil), np.zeros(2))
    assert np.array_equal(alg.mixed_mul(nil, e[0]), np.zeros(4))
    # consequence: commutator values square to zero and kill odd elements,
    # which is what every transport identity relies on
    q1, q2 = np.array([1.0, 2, 0, 1]), np.array([0.0, 1, 3, 1])
    c = alg.odd_commutator(q1, q2)
    assert value_norm(alg.even_mul(c, c)) == 0.0
    assert value_norm(alg.mixed_mul(c, q1)) == 0.0


def test_scalar_backend():
    d = AlgebraDescriptor("scalar")
    assert d.even_dim == 1 and d.odd_dim == 0
    a = EvenValue(d, [2.0])
    b = EvenValue(d, [3.0])
    assert (a * b) == EvenValue(d, [6.0])
    with pytest.raises(GradingError):
        get_algebra(d).odd_mul(np.zeros(0), np.zeros(0))


def test_mixed_value_arithmetic_and_errors():
    d = AlgebraDescriptor("symplectic", 1)
    u = EvenValue.unit(d)
    q = OddValue(d, [1.0, 2.0])
    assert (u * q) == q
    assert (q * u) == q
    assert (2.0 * q) == OddValue(d, [2.0, 4.0])
    with pytest.raises(GradingError):
        q * q
    with pytest.raises(GradingError):
        u + q
    other = AlgebraDescriptor("symplectic", 2)
    with pytest.raises(DescriptorMismatch):
        q.commutator(OddValue(other, np.zeros(4)))
    with pytest.raises(SuperKdVError):
        EvenValue(d, [1.0, 2.0, 3.0])


even_coords = st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=4)


@given(a=even_coords, b=even_coords, c=even_coords)
@settings(max_examples=100, deadline=None)
def test_grassmann3_even_mul_commutative_associative(a, b, c):
    alg = get_algebra(AlgebraDescriptor("grassmann", 3))
    a, b, c = np.array(a), np.array(b), np.array(c)
    scale = max(1.0, value_norm(a) * value_norm(b) * max(1.0, value_norm(c)))
    assert value_norm(alg.even_mul(a, b) - alg.even_mul(b, a)) == 0.0
    assoc = alg.even_mul(alg.even_mul(a, b), c) - alg.even_mul(a, alg.even_mul(b, c))
    assert value_norm(assoc) <= 1e-12 * scale


@given(q=st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
       p=st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_commutator_square_vanishes_pointwise(q, p):
    # [q, p]^2 = 0 in both associative backends; for grassmann this is the
    # "commutator-squared term drops from the hamiltonian" statement
    for d in (AlgebraDescriptor("grassmann", 3), AlgebraDescriptor("symplectic", 2)):
        alg = get_algebra(d)
        c = alg.odd_commutator(np.array(q), np.array(p))
        assert value_norm(alg.even_mul(c, c)) == 0.0


def test_shuffle_identity_on_associative_backends():
    # q1*[q2,q3] = [q1,q2]*q3, the identity behind the supersymmetry
    # invariance and the Miura transport
    rng = np.random.default_rng(11)
    for d in (AlgebraDescriptor("grassmann", 4), AlgebraDescriptor("symplectic", 2)):
        alg = get_algebra(d)
        for _ in range(20):
            q1, q2, q3 = rng.uniform(-1, 1, (3, d.odd_dim))
            lhs = alg.mixed_mul(alg.odd_commutator(q2, q3), q1)
            rhs = alg.mixed_mul(alg.odd_commutator(q1, q2), q3)
            assert value_norm(lhs - rhs) <= 1e-13


def test_descriptor_roundtrip_and_dims():
    cases = {
        "scalar": (1, 0),
        "grassmann:2": (2, 2),
        "grassmann:4": (8, 8),
        "symplectic:1": (2, 2),
        "symplectic:3": (2, 6),
    }
    for text, (ed, od) in cases.items():
        d = AlgebraDescriptor.from_string(text)
        assert str(d) == text
        assert (d.even_dim, d.odd_dim) == (ed, od)
    assert AlgebraDescriptor("grassmann", 3).odd_labels == ("t1", "t2", "t3", "t1t2t3")
    assert AlgebraDescriptor("symplectic", 1).even_labels == ("unit", "nil")
    with pytest.raises(SuperKdVError):
        AlgebraDescriptor.from_string("clifford:3")
    with pytest.raises(SuperKdVError):
        AlgebraDescriptor.from_string("grassmann:x")
    with pytest.raises(SuperKdVError):
        AlgebraDescriptor("symplectic", 0)
    for generators in (2.5, float("nan"), "3"):  # 2.5 was truncated to 2
        with pytest.raises(SuperKdVError, match="whole number"):
            AlgebraDescriptor("grassmann", generators)
    d = AlgebraDescriptor("grassmann", 3.0)  # an integral float is a whole number
    assert d == AlgebraDescriptor("grassmann", 3) and str(d) == "grassmann:3"


def test_validate_algebra_pass_and_fail():
    for text in ["scalar", "grassmann:2", "grassmann:3", "grassmann:4",
                 "grassmann:5", "grassmann:6", "symplectic:1", "symplectic:2",
                 "symplectic:3"]:
        report = validate_algebra(AlgebraDescriptor.from_string(text))
        assert report.passed, str(report)
    report = validate_algebra(AlgebraDescriptor("grassmann", 1))
    assert not report.passed
    assert any("nondegenerate" in c["name"] for c in report.failures)
    d = report.as_dict()
    assert d["passed"] is False and d["descriptor"] == "grassmann:1"


_EVEN_LINES = ["even_mul commutative", "even_mul associative", "unit neutral"]
_ODD_LINES = ["mixed_mul associative over P", "odd_commutator antisymmetric",
              "[q1, q2] q3 totally antisymmetric"]


def with_constants(table, s):
    """A ProductTable with the triples of table and the coefficients s."""
    return ProductTable(table.i, table.j, table.k, s, table.out_dim)


def plus_symmetric_part(half, t):
    """The coefficients of the half table with 2 added at its t-th triple
    (a, b, k) and at (b, a, k): a symmetric part, which the commutator
    half(a, b) - half(b, a) cancels."""
    s = half.s.copy()
    s[(half.i == half.j[t]) & (half.j == half.i[t]) & (half.k == half.k[t])] += 2.0
    s[t] += 2.0
    return s


def validating(altered, monkeypatch):
    """Make validate_algebra read the Algebra altered on its descriptor."""
    monkeypatch.setattr(algebra, "get_algebra", lambda d: (
        altered if d == altered.descriptor else get_algebra(d)))


@pytest.mark.parametrize("text", DEFAULT_VALIDATION_SET + ("grassmann:6 altered",))
def test_validate_algebra_keeps_its_lines_and_verdicts(text, monkeypatch):
    # every line holds, in this order, and is decided exactly, on every
    # default backend and on grassmann:6 with a symmetric part added to
    # the half table: its commutator is unchanged, so every line holds,
    # odd_mul's included (that table is left as it was), while the half
    # table's own antisymmetry proof fails
    descriptor = AlgebraDescriptor.from_string(text.split()[0])
    if text.endswith("altered"):
        altered = Algebra(descriptor)
        altered._half = with_constants(altered._half, plus_symmetric_part(altered._half, 5))
        assert not altered.odd_half_antisymmetric
        validating(altered, monkeypatch)
    lines = _EVEN_LINES
    if descriptor.odd_dim:
        lines = lines + _ODD_LINES + ["commutator is twice the odd product"] * (
            descriptor.kind == "grassmann") + ["nondegenerate on generators"]
    report = validate_algebra(descriptor)
    assert [(c["name"], c["passed"]) for c in report.checks] == [(n, True) for n in lines]
    assert all(c["detail"].startswith("exact") for c in report.checks)


@pytest.mark.parametrize("value", [np.nan, 0.5])
@pytest.mark.parametrize("table,failed", [
    ("even_mul", _EVEN_LINES + _ODD_LINES[:1]),
    ("odd_mul", ["odd_commutator antisymmetric", "[q1, q2] q3 totally antisymmetric",
                 "commutator is twice the odd product", "nondegenerate on generators"])])
def test_validate_algebra_fails_a_non_integer_coefficient(table, failed, value, monkeypatch):
    # one structure constant (unit times unit, or t1 times t2) that is NaN
    # or not an integer fails exactly the lines that read its table, with
    # no numpy warning on the way.  The half table is odd_mul's and the
    # commutator's, so the alternation line reads it too
    descriptor = AlgebraDescriptor.from_string("grassmann:3")
    altered = Algebra(descriptor)
    s = altered._tables[table].s.copy()
    s[0] = value
    altered._tables[table] = with_constants(altered._tables[table], s)
    if table == "odd_mul":
        altered._half = altered._tables[table]
    validating(altered, monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_algebra(descriptor)
    assert {c["name"]: c["detail"] for c in report.failures} == {
        name: "a structure constant is not an integer" for name in failed}


def test_validate_algebra_fails_a_flipped_even_mul_sign(monkeypatch):
    # t1t2 * t3t4 with its sign flipped: t3t4 * t1t2 differs, and so do
    # (t1t2 t3t4) t5t6 and t1t2 (t3t4 t5t6); the unit row is untouched
    descriptor = AlgebraDescriptor.from_string("grassmann:6")
    altered = Algebra(descriptor)
    table, labels = altered._tables["even_mul"], descriptor.even_labels
    s = table.s.copy()
    s[(table.i == labels.index("t1t2")) & (table.j == labels.index("t3t4"))] *= -1.0
    altered._tables["even_mul"] = with_constants(table, s)
    validating(altered, monkeypatch)
    report = validate_algebra(descriptor)
    assert {c["name"]: c["detail"] for c in report.failures} == {
        "even_mul commutative": "exact, over all even basis pairs",
        "even_mul associative": "exact, over all even basis triples",
        "mixed_mul associative over P": "exact, over all (even, even, odd) basis triples"}


def test_validate_algebra_fails_a_flipped_mixed_mul_sign(monkeypatch):
    # t1t2t3t4 * t5 with its sign flipped, a channel the bracket [t1t2t3,
    # t4] reaches: (t1t2 t3t4) t5 = t1t2 (t3t4 t5) fails, and so does
    # [t1t2t3, t4] t5 = -[t1t2t3, t5] t4
    descriptor = AlgebraDescriptor.from_string("grassmann:5")
    altered = Algebra(descriptor)
    table = altered._tables["mixed_mul"]
    s = table.s.copy()
    s[(table.i == descriptor.even_labels.index("t1t2t3t4"))
      & (table.j == descriptor.odd_labels.index("t5"))] *= -1.0
    altered._tables["mixed_mul"] = with_constants(table, s)
    validating(altered, monkeypatch)
    report = validate_algebra(descriptor)
    assert [c["name"] for c in report.failures] == [
        "mixed_mul associative over P", "[q1, q2] q3 totally antisymmetric"]
    assert not altered.bracket_product_alternates


def test_validate_algebra_proves_grassmann10_without_a_fold():
    # the largest backend a descriptor accepts: every line from the
    # triples alone, in under 2 s, and no product runs, so no fold is
    # built
    descriptor = AlgebraDescriptor("grassmann", 10)
    start = time.perf_counter()
    report = validate_algebra(descriptor)
    assert time.perf_counter() - start < 2.0
    assert report.passed, str(report)
    assert folds_built(get_algebra(descriptor)) == []


def _pairwise_grassmann_products(n):
    """The (i, j, k, s) triples of the grassmann:n tables as a loop over
    every pair of basis monomials makes them, split by operand grading."""
    masks = list(range(2 ** n))

    def popcount(m):
        return bin(m).count("1")

    evens = [m for m in masks if popcount(m) % 2 == 0]
    odds = [m for m in masks if popcount(m) % 2 == 1]
    e_index = {m: i for i, m in enumerate(evens)}
    o_index = {m: i for i, m in enumerate(odds)}
    ee, eo, oo = [], [], []
    for ma in masks:
        for mb in masks:
            if ma & mb:
                continue
            k = ma | mb
            inv = sum(popcount(ma >> (b + 1)) for b in range(n) if mb >> b & 1)
            s = -1 if inv % 2 else 1
            pa, pb = popcount(ma) % 2, popcount(mb) % 2
            if pa == 0 and pb == 0:
                ee.append((e_index[ma], e_index[mb], e_index[k], s))
            elif pa == 0 and pb == 1:
                eo.append((e_index[ma], o_index[mb], o_index[k], s))
            elif pa == 1 and pb == 1:
                oo.append((o_index[ma], o_index[mb], e_index[k], s))
    return ee, eo, oo


@pytest.mark.parametrize("n", range(1, 8))
def test_grassmann_triples_equal_the_pairwise_loop(n):
    # the vectorized tables hold the loop's triples, in its order, with
    # the index and sign types of every other backend's tables
    for got, want in zip(algebra._grassmann_products(n), _pairwise_grassmann_products(n)):
        for x, y in zip(got, algebra._coo(want)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("text", ["scalar", "symplectic:1", "symplectic:2", "symplectic:3"]
                         + [f"grassmann:{n}" for n in range(1, 7)])
def test_bracket_product_alternates_exactly(text):
    # T(a, b, c) = [q_a, q_b] q_c is totally antisymmetric on every backend
    # (vacuously on scalar), and validate_algebra reports the exact verdict
    descriptor = AlgebraDescriptor.from_string(text)
    assert Algebra(descriptor).bracket_product_alternates is True
    if descriptor.odd_dim:
        (check,) = [c for c in validate_algebra(descriptor).checks
                    if c["name"] == "[q1, q2] q3 totally antisymmetric"]
        assert check["passed"] and check["detail"].startswith("exact")


def test_bracket_product_proof_fails_on_altered_tables():
    # one mixed_mul sign flipped in a channel that commutators reach (not
    # the unit's) breaks the identity, and a sign that is not an integer
    # proves nothing
    descriptor = AlgebraDescriptor.from_string("grassmann:3")
    table = Algebra(descriptor)._tables["mixed_mul"]
    flipped, halved = table.s.copy(), 0.5 * table.s
    flipped[np.flatnonzero(table.i)[0]] *= -1.0
    for altered in (flipped, halved):
        copy = Algebra(descriptor)
        copy._tables["mixed_mul"] = with_constants(table, altered)
        assert copy.bracket_product_alternates is False


@pytest.mark.parametrize("text", ["scalar", "grassmann:3", "grassmann:6", "symplectic:2"])
def test_proof_triples_are_the_tables_triples(text):
    # the proofs read tables that define the same dense (left, right, out)
    # tensor as the gather_fold table, exactly: the commutator as both
    # halves, where the grassmann commutator's table is the half one with
    # coefficients 2 s
    algebra = Algebra(AlgebraDescriptor.from_string(text))
    E, O = algebra.descriptor.even_dim, algebra.descriptor.odd_dim
    shapes = {"odd_commutator": (O, O, E), "mixed_mul": (E, O, O)}
    read = {"odd_commutator": algebra._bracket, "mixed_mul": algebra._tables["mixed_mul"]}
    for product, proof in read.items():
        i, j, k, s = proof.i, proof.j, proof.k, proof.s
        want, got = np.zeros(shapes[product]), np.zeros(shapes[product])
        np.add.at(want, (i, j, k), s)
        table = algebra.gather_fold(product)
        np.add.at(got, (table.i, table.j, table.k), table.s)
        assert np.array_equal(got, want), product


def folds_built(algebra):
    """The (table, fold) names of every fold an Algebra's tables hold."""
    tables = dict(algebra._tables, half=algebra._half,
                  **{f"square {name}": table for name, table in algebra._squares.items()})
    return sorted((name, fold) for name, table in tables.items()
                  for fold in ("dense", "grouped") if fold in vars(table))


def test_bracket_product_proof_is_made_on_first_use():
    # building an Algebra, as the set-up of every run does, makes neither
    # proof, nor the commutator table that depends on one, nor any square
    # table, nor any fold, dense or grouped; each is made on first use
    algebra = Algebra(AlgebraDescriptor.from_string("grassmann:6"))
    proofs = {"bracket_product_alternates", "odd_half_antisymmetric"}
    assert not proofs & set(vars(algebra))
    assert algebra._squares == {} and "odd_commutator" not in algebra._tables
    assert folds_built(algebra) == []
    assert algebra.bracket_product_alternates
    assert "odd_half_antisymmetric" not in vars(algebra)
    algebra.gather_fold("odd_commutator")
    assert proofs <= set(vars(algebra)) and algebra._squares == {}
    algebra.square_fold("even_mul")
    assert list(algebra._squares) == ["even_mul"]
    assert folds_built(algebra) == []
    # a product builds the one fold its size asks for: one value wastes
    # too little for a grouped fold, a field of 256 samples enough
    E = algebra.descriptor.even_dim
    algebra.even_mul(np.ones(E), np.ones(E))
    assert folds_built(algebra) == [("even_mul", "dense")]
    algebra.even_mul(np.ones((E, 256)), np.ones((E, 256)))
    assert folds_built(algebra) == [("even_mul", "dense"), ("even_mul", "grouped")]


@pytest.mark.parametrize("text", ["scalar", "symplectic:1", "symplectic:2", "symplectic:3"]
                         + [f"grassmann:{n}" for n in range(1, 7)])
def test_square_tables_merge_each_unordered_pair(text):
    # a * a through the square table: one column per unordered pair i <= j
    # and output channel, no zero coefficient, and the full table's value
    algebra = Algebra(AlgebraDescriptor.from_string(text))
    E, O = algebra.descriptor.even_dim, algebra.descriptor.odd_dim
    rng = np.random.default_rng(8)
    products = {"even_mul": E, "odd_commutator": O}
    if algebra.descriptor.kind == "grassmann":
        products["odd_mul"] = O
    for product, dim in products.items():
        square = algebra.square_fold(product)
        i, j, k = square.i, square.j, square.k
        assert (i <= j).all() and (square.s != 0).all()
        assert len(set(zip(i, j, k))) == len(i)
        a = rng.uniform(-1.0, 1.0, (dim, 5))
        full = algebra.gather_fold(product)
        assert np.allclose(triple_product(square, a, a), triple_product(full, a, a),
                           rtol=0.0, atol=1e-13)
    with pytest.raises(GradingError):
        algebra.square_fold("mixed_mul")


@pytest.mark.parametrize("text,holds", [(f"grassmann:{n}", True) for n in range(2, 7)]
                         + [(f"symplectic:{n}", False) for n in range(1, 4)])
def test_odd_half_antisymmetry_is_proven_exactly(text, holds):
    # the half table is the odd product on grassmann, so [a, b] = 2 ab is
    # one half table with coefficients 2 s; symplectic's half is one
    # orientation of omega, so its commutator keeps both halves
    algebra = Algebra(AlgebraDescriptor.from_string(text))
    assert algebra.odd_half_antisymmetric is holds
    table, half = algebra.gather_fold("odd_commutator"), algebra._half
    assert len(table.s) == (1 if holds else 2) * len(half.s)
    if holds:
        for got, want in zip((table.i, table.j, table.k, table.s),
                             (half.i, half.j, half.k, 2.0 * half.s)):
            assert np.array_equal(got, want)


def test_odd_half_proof_fails_on_altered_triples():
    # one half triple with its sign flipped, or a sign that is not an
    # integer, proves nothing, and the commutator table keeps both halves
    descriptor = AlgebraDescriptor.from_string("grassmann:4")
    half = Algebra(descriptor)._half
    flipped, halved = half.s.copy(), 0.5 * half.s
    flipped[3] *= -1.0
    for altered in (flipped, halved):
        copy = Algebra(descriptor)
        copy._half = with_constants(half, altered)
        assert copy.odd_half_antisymmetric is False
        assert len(copy.gather_fold("odd_commutator").s) == 2 * len(half.s)


def triple_product(table, a, b):
    """The table's product of a and b summed triple by triple through its
    dense (out, left, right) tensor: the reference no fold shares."""
    tensor = np.zeros((table.out_dim, len(a), len(b)))
    np.add.at(tensor, (table.k, table.i, table.j), table.s)
    return np.einsum("kij,in,jn->kn", tensor, a, b)


def run_fold(fold, products):
    """The fold of the (nnz, size) products, into output and scratch rows
    that start as NaN, so a row no group writes shows."""
    out = np.full((fold.out_dim, products.shape[1]), np.nan)
    fold_into(*fold.bind(products, out, np.full_like(out, np.nan)))
    return out


FOLD_BACKENDS = (["scalar"] + [f"grassmann:{n}" for n in range(1, 9)]
                 + [f"symplectic:{n}" for n in range(1, 4)])


def every_table(algebra):
    """(name, ProductTable) of every product and every square table."""
    products = ["even_mul", "mixed_mul", "odd_commutator"]
    if algebra.descriptor.kind == "grassmann":
        products.append("odd_mul")
    tables = [(name, algebra.gather_fold(name)) for name in products]
    return tables + [(f"square {name}", algebra.square_fold(name))
                     for name in products if name != "mixed_mul"]


@pytest.mark.parametrize("text", FOLD_BACKENDS)
def test_grouped_folds_sum_each_channel_over_its_own_pairs(text):
    # every product and square table, on random operands at N = 64: the
    # grouped fold gives the value of the triples, stores no zero
    # coefficient and puts each output channel in exactly one group, which
    # sums over that channel's pair count; a channel without pairs (the
    # unit of a grassmann bracket) comes out exactly 0
    algebra = Algebra(AlgebraDescriptor.from_string(text))
    E, O = algebra.descriptor.even_dim, algebra.descriptor.odd_dim
    rng = np.random.default_rng(9)
    for name, table in every_table(algebra):
        fold = table.grouped
        left, right = (E, O) if name == "mixed_mul" else (O, O) if "odd" in name else (E, E)
        a, b = rng.uniform(-1.0, 1.0, (left, 64)), rng.uniform(-1.0, 1.0, (right, 64))
        got, want = run_fold(fold, a[fold.i] * b[fold.j]), triple_product(table, a, b)
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(initial=1.0), name
        assert (fold.s != 0).all(), name
        grouped = [channel for rows, _, _ in fold.groups for channel in fold.channels[rows]]
        assert sorted(grouped) == list(range(table.out_dim)), name
        counts = np.bincount(table.k, minlength=table.out_dim)
        assert (got[counts == 0] == 0.0).all(), name
        for rows, columns, coefficients in fold.groups:
            channels = fold.channels[rows]
            n, _, c = coefficients.shape
            assert n == len(channels) and (counts[channels] == c).all(), name
            assert np.array_equal(fold.k[columns], np.repeat(channels, c)), name
            assert np.array_equal(coefficients.ravel(), fold.s[columns]), name


def test_validate_algebra_runtime_under_one_second():
    t0 = time.perf_counter()
    for text in ["scalar", "grassmann:2", "grassmann:3", "grassmann:4",
                 "grassmann:5", "grassmann:6", "symplectic:1", "symplectic:2",
                 "symplectic:3", "grassmann:1"]:
        validate_algebra(AlgebraDescriptor.from_string(text))
    assert time.perf_counter() - t0 < 1.0


def test_broadcast_over_grid_axis():
    # product tables accept (dim, N) stacks, one algebra value per grid point
    alg = get_algebra(AlgebraDescriptor("grassmann", 3))
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (4, 7))
    q = rng.uniform(-1, 1, (4, 7))
    stacked = alg.mixed_mul(a, q)
    for x in range(7):
        assert np.allclose(stacked[:, x], alg.mixed_mul(a[:, x], q[:, x]))


def oracle_tables(descriptor):
    """Product triples (i, j, k, s) per table, built without the package:
    Grassmann ones from oracle_mul, symplectic and scalar ones by hand."""
    if descriptor.kind == "scalar":
        return {"ee": [(0, 0, 0, 1)], "eo": [], "oo": []}
    if descriptor.kind == "symplectic":
        n = descriptor.generators
        return {"ee": [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                "eo": [(0, j, j, 1) for j in range(2 * n)],
                # q*p with only the half of omega that the commutator antisymmetrizes
                "oo": [(i, n + i, 1, 1) for i in range(n)]}
    evens, odds = masks_by_parity(descriptor.generators)
    tables = {}
    for name, left, right, out in (("ee", evens, evens, evens), ("eo", evens, odds, odds),
                                   ("oo", odds, odds, evens)):
        tables[name] = []
        for ia, ma in enumerate(left):
            for ib, mb in enumerate(right):
                sign, mono = oracle_mul(mask_to_tuple(ma), mask_to_tuple(mb))
                if sign:
                    k = out.index(sum(1 << g for g in mono))
                    tables[name].append((ia, ib, k, sign))
    return tables


def oracle_product(triples, out_dim, a, b):
    out = np.zeros((out_dim,) + a.shape[1:])
    for i, j, k, s in triples:
        out[k] += s * a[i] * b[j]
    return out


BACKENDS = ["scalar", "grassmann:2", "grassmann:3", "grassmann:4", "grassmann:5",
            "grassmann:6", "symplectic:1", "symplectic:2", "symplectic:3"]


@pytest.mark.parametrize("text", BACKENDS)
def test_products_match_per_triple_oracle(text):
    d = AlgebraDescriptor.from_string(text)
    alg = get_algebra(d)
    tables = oracle_tables(d)
    E, O = d.even_dim, d.odd_dim
    rng = np.random.default_rng(5)
    for shape in [(), (17,), (), (4, 5), (17,), (3,)]:
        a, b = rng.uniform(-1, 1, (2, E) + shape)
        q, p = rng.uniform(-1, 1, (2, O) + shape)
        pairs = [(alg.even_mul(a, b), oracle_product(tables["ee"], E, a, b)),
                 (alg.mixed_mul(a, q), oracle_product(tables["eo"], O, a, q))]
        half_qp = oracle_product(tables["oo"], E, q, p)
        half_pq = oracle_product(tables["oo"], E, p, q)
        pairs.append((alg.odd_commutator(q, p), half_qp - half_pq))
        if d.kind == "grassmann":
            pairs.append((alg.odd_mul(q, p), half_qp))
        for got, want in pairs:
            assert got.shape == want.shape
            # summation order differs from the oracle's: roundoff only
            assert np.allclose(got, want, rtol=0.0, atol=1e-13), (text, shape)
        # each method is its gather_fold table's fold for its size applied,
        # bit for bit
        methods = [("even_mul", a, b), ("mixed_mul", a, q)]
        if d.kind == "grassmann":
            methods.append(("odd_mul", q, p))
        for name, x, y in methods:
            table = alg.gather_fold(name)
            size = math.prod(shape)
            fold = table.fold(size)
            gathered = (x[fold.i] * y[fold.j]).reshape(len(fold.s), size)
            want = run_fold(fold, gathered).reshape((table.out_dim,) + shape)
            assert np.array_equal(getattr(alg, name)(x, y), want), (text, name, shape)


def test_product_results_do_not_alias():
    alg = get_algebra(AlgebraDescriptor("grassmann", 4))
    rng = np.random.default_rng(6)
    a, b, c = rng.uniform(-1, 1, (3, 8, 32))
    first = alg.even_mul(a, b)
    kept = first.copy()
    second = alg.even_mul(b, c)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)
    first[:] = 7.0
    assert np.array_equal(second, alg.even_mul(b, c))
    comm = alg.odd_commutator(a, c)
    assert np.array_equal(comm, alg.odd_commutator(a, c))
    assert not np.shares_memory(comm, alg.odd_commutator(a, c))


def test_concurrent_products_match_serial_results():
    import sys
    import threading

    d = AlgebraDescriptor("grassmann", 5)
    alg = get_algebra(d)
    rng = np.random.default_rng(8)
    inputs = [rng.uniform(-1, 1, (2, d.even_dim, n)) for n in (256, 96, 256, 128)]
    serial = [(alg.even_mul(a, b), alg.odd_commutator(a, b)) for a, b in inputs]
    failures = []

    def worker(offset):
        for rep in range(150):
            index = (offset + rep) % len(inputs)
            a, b = inputs[index]
            want_mul, want_comm = serial[index]
            try:
                same = (np.array_equal(alg.even_mul(a, b), want_mul)
                        and np.array_equal(alg.odd_commutator(a, b), want_comm))
            except Exception as exc:  # a thread's exception would go unseen
                same = exc
            if same is not True:
                failures.append((index, same))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_product_operand_shapes_checked():
    d = AlgebraDescriptor("grassmann", 3)
    alg = get_algebra(d)
    E, O = d.even_dim, d.odd_dim
    bad = [(alg.even_mul, np.zeros(E + 1), np.zeros(E)),       # channel count
           (alg.mixed_mul, np.zeros(E), np.zeros(O - 1)),
           (alg.odd_commutator, np.zeros((O, 3)), np.zeros((E + 1, 3))),
           (alg.odd_mul, np.zeros((O, 7)), np.zeros((O, 8))),    # trailing axes
           (alg.even_mul, np.zeros((E, 1)), np.zeros((E, 7))),   # no broadcasting
           (alg.mixed_mul, np.zeros((E, 7)), np.zeros(O)),
           (alg.even_mul, np.zeros(()), np.zeros(E))]
    for product, a, b in bad:
        with pytest.raises(SuperKdVError):
            product(a, b)

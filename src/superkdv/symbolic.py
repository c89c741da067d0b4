"""Differential polynomials in u, xi and the bracket [xi^(a), xi^(b)].

A monomial is a product of u-derivatives u^(k), bracket factors C(a, b)
standing for [xi^(a), xi^(b)] with a > b, and at most one bare odd factor
xi^(c), times a power of the coupling L; its coefficient is an exact
rational, and the same factors at different powers of L are different
monomials.  Bare products of two odd symbols are not representable: the
graded interface only exposes odd pairs through the bracket, and the
engine enforces the same restriction.

The normal form is unique: brackets are oriented (C(a, a) vanishes,
C(a, b) with a < b flips sign), factor lists are sorted, equal monomials
merge, zero coefficients drop.  Total x-differentiation is the Leibniz
rule with D C(a, b) = C(a+1, b) + C(a, b+1).

Every formula of the systems is written once here as a text, u and xi
standing for the fields of the system it belongs to: the densities H0..H6
(extended u, xi) and h (modified v, eta), each system's nonlinear terms,
and the Miura and gardner maps (in their source fields v, eta and z, s).

One engine, _Program, evaluates polynomials on fields (u, xi): compiled
once per call site at one backend and coupling by one rule into
product ops, one per group of terms sharing their last factor, and
bound level by level, each level's small ops fused into one, as one flat
list of numpy calls, it runs them on samples it checks finite, the
derivatives taken with one stacked transform each way.  Every numeric
evaluation of these texts, the evolution right-hand sides included, runs
on it; transforms.susy_variation and dynamics.rhs_skdv_grassmann, whose
formulas are no texts here, use field arithmetic.

Equality modulo total derivatives is decided exactly, in the free model
of the normal form (u-derivatives and brackets as independent symbols).
D keeps a monomial's u-degree, bracket count, odd flag and power of L and
raises its order by one, so a polynomial is a total derivative exactly
when each group of its terms of one grade and order w lies in the span of
D of every monomial of that grade and order w - 1: one Fraction
elimination per group.  reproduce_conserved_quantities reads its
constants from the same residues.  A free-model "equal" holds on every
backend; a "different" may still vanish on a realized one.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import get_algebra, run_calls
from .errors import (DescriptorMismatch, ExpressionSyntaxError, GradingError,
                     NonFiniteFieldError, SuperKdVError, finite_number, term_coefficient)
from .fields import EvenField, OddField


def _orient_comm(a, b):
    """Canonical bracket orientation: (pair, sign) or None when it vanishes."""
    if a == b:
        return None
    return ((a, b), 1) if a > b else ((b, a), -1)


class DiffPolynomial:
    """Normal-form differential polynomial.

    terms maps (even_factors, comm_factors, odd_factor, L power) to a
    nonzero Fraction; even_factors is a sorted tuple of derivative orders
    of u, comm_factors a sorted tuple of oriented (a, b) bracket pairs,
    odd_factor a derivative order of xi or None.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return DiffPolynomial()

    @staticmethod
    def constant(c, lam_power=0):
        return DiffPolynomial({((), (), None, lam_power): Fraction(c)})

    @staticmethod
    def u(order=0):
        return DiffPolynomial({((order,), (), None, 0): Fraction(1)})

    @staticmethod
    def xi(order=0):
        return DiffPolynomial({((), (), order, 0): Fraction(1)})

    @staticmethod
    def bracket(a, b):
        oriented = _orient_comm(a, b)
        if oriented is None:
            return DiffPolynomial()
        pair, sign = oriented
        return DiffPolynomial({((), (pair,), None, 0): Fraction(sign)})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def gradings(self):
        return {key[2] is not None for key in self.terms}

    def is_even(self):
        return self.gradings() <= {False}

    def is_odd(self):
        return self.gradings() <= {True}

    def __eq__(self, other):
        return isinstance(other, DiffPolynomial) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("DiffPolynomial is mutable-by-construction; not hashable")

    # -- ring operations ----------------------------------------------------

    def _merged(self, key, c):
        c += self.terms.get(key, 0)
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)

    def __add__(self, other):
        out = DiffPolynomial(self.terms)
        for key, c in other.terms.items():
            out._merged(key, c)
        return out

    def __neg__(self):
        return DiffPolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c, lam_power=0):
        c = Fraction(c)
        if c == 0:
            return DiffPolynomial()
        return DiffPolynomial({(even, comms, odd, power + lam_power): v * c
                               for (even, comms, odd, power), v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, DiffPolynomial):
            return self.scaled(other)
        out = DiffPolynomial()
        for (e1, c1, o1, p1), v1 in self.terms.items():
            for (e2, c2, o2, p2), v2 in other.terms.items():
                if o1 is not None and o2 is not None:
                    raise GradingError(
                        "product of two odd terms; only the bracket "
                        "[xi^(a), xi^(b)] represents odd pairs")
                key = (tuple(sorted(e1 + e2)), tuple(sorted(c1 + c2)),
                       o1 if o1 is not None else o2, p1 + p2)
                out._merged(key, v1 * v2)
        return out

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------------

    def differentiate_total(self):
        """Total x-derivative by the Leibniz rule."""
        out = DiffPolynomial()
        for (even, comms, odd, power), c in self.terms.items():
            for i, k in enumerate(even):
                bumped = tuple(sorted(even[:i] + (k + 1,) + even[i + 1:]))
                out._merged((bumped, comms, odd, power), c)
            for i, (a, b) in enumerate(comms):
                rest = comms[:i] + comms[i + 1:]
                for pair in ((a + 1, b), (a, b + 1)):
                    oriented = _orient_comm(*pair)
                    if oriented is None:
                        continue
                    newpair, sign = oriented
                    out._merged((even, tuple(sorted(rest + (newpair,))), odd, power),
                                c * sign)
            if odd is not None:
                out._merged((even, comms, odd + 1, power), c)
        return out

    def __repr__(self):
        return f"DiffPolynomial({to_text(self)})"


def commutator(p, q):
    """Bracket of two odd polynomials, expanded by bilinearity over the
    even coefficients: [E xi^(a), F xi^(b)] = E F [xi^(a), xi^(b)]."""
    if not (p.is_odd() and q.is_odd()):
        raise GradingError("commutator needs two odd-graded polynomials")
    out = DiffPolynomial()
    for (e1, c1, o1, p1), v1 in p.terms.items():
        for (e2, c2, o2, p2), v2 in q.terms.items():
            oriented = _orient_comm(o1, o2)
            if oriented is None:
                continue
            pair, sign = oriented
            key = (tuple(sorted(e1 + e2)), tuple(sorted(c1 + c2 + (pair,))), None, p1 + p2)
            out._merged(key, v1 * v2 * sign)
    return out


# ---------------------------------------------------------------------------
# parsing

_TOKEN_CHARS = {"+", "-", "*", "/", "^", "(", ")", "[", "]", ","}


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "'":
            j = i
            while j < n and text[j] == "'":
                j += 1
            tokens.append(("PRIME", j - i, i))
            i = j
            continue
        if ch.isdecimal():  # what int() reads: "²" is a digit but no decimal
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        poly = self.expression()
        tok = self.peek()
        if tok[0] != "END":
            raise ExpressionSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return poly

    def expression(self):
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        poly = self.term().scaled(sign)
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            nxt = self.term()
            poly = poly + (nxt if op == "+" else -nxt)
        return poly

    def term(self):
        poly = self.factor()
        while self.peek()[0] == "*":
            star_pos = self.next()[2]
            try:
                poly = poly * self.factor()
            except GradingError:
                raise ExpressionSyntaxError(
                    "product of two odd expressions; use [A,B]", star_pos)
        return poly

    def factor(self):
        poly = self.atom()
        while self.peek()[0] == "^":
            caret_pos = self.peek()[2]
            self.next()
            tok = self.next()
            if tok[0] != "INT":
                raise ExpressionSyntaxError("exponent must be an integer", tok[2])
            result = DiffPolynomial.constant(1)
            for _ in range(tok[1]):
                try:
                    result = result * poly
                except GradingError:
                    raise ExpressionSyntaxError(
                        "power of an odd expression is not representable",
                        caret_pos)
            poly = result
        return poly

    def _derivative_suffix(self):
        """Postfix primes or ^(k) immediately after a symbol name."""
        order = 0
        while True:
            tok = self.peek()
            if tok[0] == "PRIME":
                order += self.next()[1]
            elif (tok[0] == "^" and self.tokens[self.pos + 1][0] == "("
                  and self.tokens[self.pos + 2][0] == "INT"
                  and self.tokens[self.pos + 3][0] == ")"):
                self.pos += 2
                order += self.next()[1]
                self.next()
            else:
                return order

    def _xi_entry(self):
        tok = self.next()
        if tok[0] != "NAME" or tok[1] != "xi":
            raise ExpressionSyntaxError(
                "commutator entries must be xi derivatives", tok[2])
        return self._derivative_suffix()

    def atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "INT":
            num = Fraction(value)
            if self.peek()[0] == "/":
                self.next()
                den = self.expect("INT")
                if den[1] == 0:
                    raise ExpressionSyntaxError("division by zero", den[2])
                num /= den[1]
            return DiffPolynomial.constant(num)
        if kind == "NAME":
            if value == "u":
                return DiffPolynomial.u(self._derivative_suffix())
            if value == "xi":
                return DiffPolynomial.xi(self._derivative_suffix())
            if value == "L":
                return DiffPolynomial.constant(1, lam_power=1)
            if value == "D":
                self.expect("(")
                inner = self.expression()
                self.expect(")")
                return inner.differentiate_total()
            raise ExpressionSyntaxError(f"unknown symbol {value!r}", pos)
        if kind == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if kind == "[":
            a = self._xi_entry()
            self.expect(",")
            b = self._xi_entry()
            self.expect("]")
            return DiffPolynomial.bracket(a, b)
        if kind == "-":
            return -self.atom()
        raise ExpressionSyntaxError(f"unexpected {value!r}", pos)


def parse(text):
    """Parse expression text into a normal-form DiffPolynomial."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing

def _fmt_fraction(c):
    return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _fmt_factor(base, power):
    return base if power == 1 else f"{base}^{power}"


def _fmt_symbol(name, order):
    return name if order == 0 else f"{name}^({order})"


def _term_pieces(key, coeff):
    even, comms, odd, power_of_lam = key
    pieces = []
    if power_of_lam:
        pieces.append(_fmt_factor("L", power_of_lam))
    for k in sorted(set(even)):
        pieces.append(_fmt_factor(_fmt_symbol("u", k), even.count(k)))
    seen = []
    for pair in comms:
        if pair in seen:
            continue
        seen.append(pair)
        base = f"[{_fmt_symbol('xi', pair[0])},{_fmt_symbol('xi', pair[1])}]"
        pieces.append(_fmt_factor(base, comms.count(pair)))
    if odd is not None:
        pieces.append(_fmt_symbol("xi", odd))
    if not pieces or abs(coeff) != 1:
        pieces.insert(0, _fmt_fraction(abs(coeff)))
    return "*".join(pieces)


def to_text(poly):
    """Canonical text form; parse(to_text(p)) == p."""
    if poly.is_zero():
        return "0"
    keys = sorted(poly.terms, key=lambda k: (k[2] is not None, k[0], k[1],
                                             -1 if k[2] is None else k[2], k[3]))
    parts = []
    for i, key in enumerate(keys):
        coeff = poly.terms[key]
        text = _term_pieces(key, coeff)
        if i == 0:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {text}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# numeric instantiation: polynomials compiled into product programs

def _live_terms(poly, lam, descriptor, eps=1.0, eps_power=0):
    """(factors, odd order, coefficient) of each term of poly that does not
    vanish at coupling lam on the backend; the factors are the even orders
    and bracket pairs, the coefficient is evaluated at lam and scaled by
    eps^eps_power (errors.term_coefficient).

    Two kinds of term vanish on a backend whatever the fields: every term
    with an odd symbol when it has no odd channels, and [xi^(a), xi^(b)]
    xi^(c) with c equal to a or b when its Algebra proves that [q1, q2] q3
    is totally antisymmetric (bracket_product_alternates), as then the
    value is a sum of T(a', b', c') x_a' y_b' x_c' that cancels in pairs.
    A term with further factors is kept, as is a term in a polynomial
    compiled on a backend without that proof."""
    algebra = get_algebra(descriptor)
    has_odd = bool(descriptor.odd_dim)
    sums = {}
    for (even, comms, odd, power), c in poly.terms.items():
        if not has_odd and (comms or odd is not None):
            continue
        if (not even and len(comms) == 1 and odd in comms[0]
                and algebra.bracket_product_alternates):
            continue
        key = (even + comms, odd)
        sums[key] = sums.get(key, 0) + term_coefficient(c, lam, power)
    live = []
    for (factors, odd), total in sums.items():
        coeff = term_coefficient(total, lam, 0, eps, eps_power)
        if coeff != 0.0:
            live.append((factors, odd, coeff))
    return live


# A level's dense ops run as one fused op while their gathers stay within
# FUSED_SAMPLES samples (rows times N).  Fusing saves numpy calls, which
# cost more than the arithmetic on the small tables; past about this many
# samples the gathers outgrow the cache and the calls no longer dominate.
# FUSED_ROWS keeps every fused matrix product's inner dimension
# within the 384 columns OpenBLAS sums in one block, with any thread count.
FUSED_SAMPLES = 8192
FUSED_ROWS = 384


def _block_diagonal(matrices):
    """The matrices along the diagonal of one matrix, zeros elsewhere.  Its
    product with their operands stacked sums each row over its own
    matrix's columns, in their order, between exact zeros: so a matrix
    product that sums each output in column order, as OpenBLAS does for
    up to FUSED_ROWS columns, gives every row the bits it gets alone."""
    out = np.zeros(tuple(map(sum, zip(*(matrix.shape for matrix in matrices)))))
    row = column = 0
    for matrix in matrices:
        height, width = matrix.shape
        out[row:row + height, column:column + width] = matrix
        row, column = row + height, column + width
    return out


class _Program:
    """Polynomials on one grid and backend as one flat list of bound numpy
    calls over one stack of sample rows.

    The head of the stack holds the samples: [u; xi], then one block per
    derivative order the terms read, u-orders first (`derivatives` lists
    the rows, the rows of [u; xi] and (ik)^order of each).  A node is the
    first row of a block: u_rows and xi_rows map orders to nodes, and each
    output, product and sum appends a block.  A step is an op or a sum.  An op
    (product, left rows, right rows, fold, node) gathers the rows of the
    named product's Algebra.gather_fold table, offset to its operands'
    nodes, multiplies them and folds them onto the output channels with
    the algebra.Fold the table's cost rule picks for N samples:
    one dense matrix product on a small table, else one batched matrix
    product per group of channels with equal pair counts, each channel
    summing only its own pairs, and one take into channel order.  Its
    rows are gathered in that fold's column order.  A sum adds
    coefficient times node over its terms.  An op whose operands are one
    node (u u, u' u', [xi', xi]^2) gathers the product's square_fold
    table instead, about half the rows, and on grassmann a commutator
    gathers the half table with coefficients 2 s.

    Every polynomial is built by one rule, `_poly`, from its live terms
    (`_live_terms`: the terms that vanish on the backend are not compiled,
    so no op is built for them).  They are grouped by the factor they are
    multiplied by last: a mixed term by its odd factor, an even term by
    its first factor, a lone bracket alone.  Each group is one op.  A
    group of one term scales its fold by the coefficient; a group of
    several multiplies one combined operand, the sum of coefficient times
    the product of the other factors.  Those products are made prefix by
    prefix, one op per distinct prefix, shared by every polynomial of the
    program; the empty product is a unit block.  A lone bracket that some
    term of the program multiplies by a further factor is that shared
    product, not an op of its own, and so is a one-term even group whose
    whole product some group makes as such a prefix (H2's u^2 where H4
    has 2 u^3).  The first op writes into the polynomial's rows and one
    sum adds the other ops, the shared products and the constant and
    linear terms (the unit, a u^(k), a bare xi^(c) or a shared bracket).
    Each fold is one product table's own (or its square table's), so no
    matmul sums more terms, or depends more on the BLAS thread count,
    than that table: a grouped fold sums at most a channel's pair count,
    2^(n-1) on grassmann:n.

    `link()` schedules the steps into levels (`_schedule`): each op one
    level before the first op that reads it, directly or through sums, so
    the ops that write the outputs share the last level; a sum runs once
    its inputs are made.  A level's ops that fold dense and fill whole
    blocks run fused (`_fuse`) while their gathers stay within
    FUSED_SAMPLES samples and FUSED_ROWS rows: one op over their rows side
    by side, its fold the block-diagonal matrix of theirs, which gives
    each output channel the bits its own op gives.  The blocks they write
    are laid out side by side, so the fused fold writes one run of rows;
    the stack keeps its height.  A level of one op, and an op over a
    grouped fold, run as they are: the modified stage on
    grassmann:3 runs its 6 ops as 2 fused levels, on grassmann:6 at N =
    256 one at a time.  `ops` keeps each op, at its laid-out rows, and
    `fused` the ops of each fused level.  `link()` also allocates the
    stack, each block N columns wide, and binds the steps to it as `calls`,
    one flat list of (function, arguments) in run order, which `run` calls:
    an op as its gathers (a take, or a view of the stack where the rows
    are one contiguous run), one multiply and its fold's calls
    (`algebra.Fold.bind`, or a fused level's matmul), a sum as its
    multiplies and adds.  So scalar's u u is two calls, u times u and the
    product times 3.
    """

    def __init__(self, grid, descriptor, terms):
        n_even = descriptor.even_dim
        self.grid, self.n_rows = grid, n_even + descriptor.odd_dim
        self.algebra = get_algebra(descriptor)
        u_orders = {f for factors, _, _ in terms for f in factors
                    if not isinstance(f, tuple)}
        xi_orders = {odd for _, odd, _ in terms if odd is not None}
        xi_orders.update(o for factors, _, _ in terms for f in factors
                         if isinstance(f, tuple) for o in f)
        # (rows of the samples, rows of [u; xi], (ik)^order) of each
        # derivative taken, and the first row of each order's samples
        self.derivatives = []
        self.u_rows, self.xi_rows = {0: 0}, {0: n_even}
        top = self.n_rows
        for first, orders, of in ((self.u_rows, u_orders, slice(0, n_even)),
                                  (self.xi_rows, xi_orders, slice(n_even, self.n_rows))):
            for order in sorted(orders - {0}):
                first[order] = top
                self.derivatives.append((slice(top, top + of.stop - of.start), of,
                                         grid.derivative_symbol(order)))
                top += of.stop - of.start
        self.height = self.top = top  # top: the first row no block holds yet
        self._products = {}
        # the brackets some term multiplies by a further factor, which
        # become products of the program; a lone bracket term reads those
        self._multiplied = {f for factors, odd, _ in terms
                            if len(factors) > 1 or odd is not None
                            for f in factors if isinstance(f, tuple)}
        # the products some group makes, prefix by prefix, of the factors it
        # multiplies by its last one; a one-term even group whose product
        # is one of them reads it
        self._shared = {rest[:end] for factors, odd, _ in terms
                        for rest in [factors if odd is not None else factors[1:]]
                        for end in range(2, len(rest) + 1)}
        self.unit = None
        self._blocks = []  # (node, height) of each block, in build order
        # ("op" or "sum", arguments, nodes read) in build order; link binds
        # them in run order as the calls
        self.steps = []
        self.outputs = []  # (field type, node, height) of each compiled polynomial

    @classmethod
    def compile(cls, polys, grid, descriptor, lam):
        """The polynomials compiled at one grid, backend and coupling; a
        mixed-grading polynomial raises GradingError."""
        lives, fields = [], []
        for poly in polys:
            gradings = poly.gradings()
            if gradings == {False, True}:
                raise GradingError("cannot instantiate a mixed-grading polynomial")
            lives.append(_live_terms(poly, lam, descriptor))
            fields.append(OddField if gradings == {True} else EvenField)
        program = cls(grid, descriptor, [term for live in lives for term in live])
        for live, field in zip(lives, fields):
            height = field._dim(descriptor)
            node = program._block(height)
            program._poly(live, node, height)
            program.outputs.append((field, node, height))
        program.link()
        return program

    def __call__(self, u, xi):
        """Each polynomial's value at the fields (u, xi), as a fresh field."""
        u._require_compatible(xi)
        if u.grid != self.grid or u.descriptor != self.algebra.descriptor:
            raise DescriptorMismatch(f"fields over {u.descriptor} on {u.grid} given to "
                                     f"a program for {self.algebra.descriptor} on {self.grid}")
        n_even = self.xi_rows[0]
        self.head[:n_even] = u.data
        self.head[n_even:self.n_rows] = xi.data
        self.evaluate()
        return [field(self.grid, u.descriptor, self.stack[node:node + height].copy())
                for field, node, height in self.outputs]

    def evaluate(self):
        """Run the program on the samples [u; xi] in the head of the stack.

        The derivatives come from one stacked rfft of them and one stacked
        irfft.  Non-finite samples raise NonFiniteFieldError."""
        n_rows = self.n_rows
        if not np.isfinite(self.head[:n_rows]).all():
            raise NonFiniteFieldError("non-finite samples in the fields")
        if self.derivatives:
            run_calls(self._derivative_calls(self.grid.rfft(self.head[:n_rows])))
            self.grid.irfft(self.spectra[n_rows:], out=self.head[n_rows:])
        self.run()

    def _block(self, height):
        node, self.top = self.top, self.top + height
        self._blocks.append((node, height))
        return node

    def _op(self, product, a, b, scale=1.0, node=None):
        """The node of scale times the named Algebra product of nodes a and
        b: a new block, or the given node's rows.  A node times itself
        gathers the product's square table.  The table folds as its
        fold(N) chooses."""
        table = (self.algebra.square_fold if a == b else self.algebra.gather_fold)(product)
        fold = table.fold(self.grid.N)
        if scale != 1.0:
            fold = fold.scaled(scale)
        if node is None:
            node = self._block(table.out_dim)
        self.steps.append(("op", (product, a + fold.i, b + fold.j, fold, node), (a, b)))
        return node

    def _sum(self, node, height, terms, onto):
        """A step that sets the rows at node to the sum of coefficient times
        node over the (node, coefficient) terms, or adds it onto them."""
        first = None if onto else terms[0]
        self.steps.append(("sum", (node, height, first, terms[0 if onto else 1:]),
                           [term for term, _ in terms] + [node] * onto))

    def _product(self, factors):
        """The node of the product of u-derivative orders and oriented
        bracket pairs; the empty product is the unit."""
        node = self._products.get(factors)
        if node is None:
            if len(factors) > 1:
                node = self._op("even_mul", self._product(factors[:-1]),
                                self._product(factors[-1:]))
            elif not factors:
                node = self.unit = self._block(self.algebra.descriptor.even_dim)
            elif isinstance(factors[0], tuple):
                a, b = factors[0]
                node = self._op("odd_commutator", self.xi_rows[a], self.xi_rows[b])
            else:
                node = self.u_rows[factors[0]]
            self._products[factors] = node
        return node

    def _poly(self, live, node, height):
        """Build the sum of the live terms into the rows at node."""
        groups, linear = {}, []
        for factors, odd, coeff in live:
            if odd is not None and factors:
                key, rest = ("mixed_mul", odd), factors
            elif len(factors) > 1:
                key, rest = ("even_mul", factors[0]), factors[1:]
            elif (factors and isinstance(factors[0], tuple)
                  and factors[0] not in self._multiplied):
                key, rest = ("odd_commutator", factors[0]), ()
            else:  # the unit, a u^(k), a bare xi^(c) or a bracket product
                linear.append((self.xi_rows[odd] if odd is not None
                               else self._product(factors), coeff))
                continue
            groups.setdefault(key, []).append((rest, coeff))
        pieces, shared = [], []
        for (product, last), members in groups.items():
            if product == "odd_commutator":
                pieces.append((product, self.xi_rows[last[0]], self.xi_rows[last[1]],
                               sum(coeff for _, coeff in members)))
                continue
            if len(members) == 1:
                ((rest, scale),) = members
                if product == "even_mul" and (last,) + rest in self._shared:
                    shared.append((self._product((last,) + rest), scale))
                    continue
                operand = self._product(rest)
            else:
                even_dim = self.algebra.descriptor.even_dim
                terms = [(self._product(rest), coeff) for rest, coeff in members]
                operand, scale = self._block(even_dim), 1.0
                self._sum(operand, even_dim, terms, onto=False)
            if product == "mixed_mul":
                pieces.append((product, operand, self.xi_rows[last], scale))
            else:
                pieces.append((product, self._product((last,)), operand, scale))
        if pieces:
            self._op(*pieces[0], node=node)
        linear = [(self._op(*piece), 1.0) for piece in pieces[1:]] + shared + linear
        if linear:
            self._sum(node, height, linear, onto=bool(pieces))

    def link(self):
        """Schedule the steps into levels, fuse each level's dense ops, lay
        out the stack, allocate it, the gather buffers and the scratch rows,
        and bind every step to its rows."""
        N = self.grid.N
        runs, links = self._schedule()
        # the row each row built lies at: the head stays, and the blocks
        # follow in build order, each chain of linked blocks together (an
        # empty block at the top stays there)
        placed = self.placed = np.arange(self.top + 1)
        row, following = self.height, set(links.values())
        for block in range(len(self._blocks)):
            if block in following:
                continue  # laid out after the block linked to it
            while block is not None:
                node, height = self._blocks[block]
                placed[node:node + height] = np.arange(row, row + height)
                row += height
                block = links.get(block)
        steps = [self._placed(step, args) for step, args, _ in self.steps]
        self.ops = [args for (step, *_), args in zip(self.steps, steps) if step == "op"]
        self.fused = [[steps[index] for index in run] for run in runs if len(run) > 1]
        if self.unit is not None:
            self.unit = int(placed[self.unit])
        self.outputs = [(field, int(placed[node]), height) for field, node, height in self.outputs]

        stack = self.stack = np.zeros((self.top, N))
        if self.unit is not None:
            stack[self.unit] = 1.0
        self.head = stack[:self.height]
        self.spectra = (np.empty((self.height, N // 2 + 1), complex)
                        if self.derivatives else None)
        gathers = [sum(len(steps[index][1]) for index in run) for run in runs
                   if self.steps[run[0]][0] == "op"]
        widest = max(gathers, default=0)
        self.buffers = (np.empty((widest, N)), np.empty((widest, N)))
        descriptor = self.algebra.descriptor
        # the rows a sum scales a term into, and those a grouped fold folds
        # into before its take
        scratch = np.empty((max(descriptor.even_dim, descriptor.odd_dim), N))

        def rows(node, height):
            return stack[node:node + height]

        def gather(indices, buffer):
            # (the rows, the calls that gather them): a view of one run of
            # rows, else a take into buffer, whose mode="clip" does not
            # buffer its output (no index is clipped, all are offset nodes)
            n = len(indices)
            if n and np.array_equal(indices, np.arange(indices[0], indices[0] + n)):
                return rows(indices[0], n), []
            buffer = buffer[:n]
            return buffer, [(stack.take, (indices, 0, buffer, "clip"))]

        def bind(run):
            if self.steps[run[0]][0] == "sum":
                node, height, first, rest = steps[run[0]]
                out, scaled = rows(node, height), scratch[:height]
                calls = [] if first is None else [
                    (np.multiply, (rows(first[0], height), first[1], out))]
                for term, coeff in rest:
                    term = rows(term, height)
                    if coeff != 1.0:
                        calls.append((np.multiply, (term, coeff, scaled)))
                        term = scaled
                    calls.append((np.add, (out, term, out)))
                return calls
            # one op, or a fused level: the ops' gathers one after another,
            # folded by one block-diagonal matrix onto their output rows
            ops = [steps[index] for index in run]
            left_rows, right_rows = (np.concatenate(indices) for indices in zip(
                *((left, right) for _, left, right, *_ in ops)))
            products = self.buffers[0][:len(left_rows)]
            (left, calls), (right, more) = (gather(indices, buffer) for indices, buffer in
                                            zip((left_rows, right_rows), self.buffers))
            calls += more + [(np.multiply, (left, right, products))]
            (*_, fold, node), *rest = ops
            if not rest:
                return calls + fold.bind(products, rows(node, fold.out_dim), scratch)
            matrix = _block_diagonal([fold.matrix for *_, fold, _ in ops])
            return calls + [(np.matmul, (matrix, products, rows(node, len(matrix))))]

        self.calls = [call for run in runs for call in bind(run)]

    def _placed(self, step, args):
        """A step's arguments with every node and row where link placed it."""
        placed = self.placed
        if step == "op":
            product, left, right, fold, node = args
            return product, placed[left], placed[right], fold, int(placed[node])
        node, height, first, rest = args
        return (int(placed[node]), height,
                None if first is None else (int(placed[first[0]]), first[1]),
                [(int(placed[term]), coeff) for term, coeff in rest])

    def _schedule(self):
        """The steps as runs in run order, each the build indices of one
        fused level, one op or one sum, and the links between the blocks
        that make each fused level's output rows contiguous.

        Each op runs at the latest level the ops that read it allow,
        directly or through sums: one level before the first of them, so
        the ops that write the program's outputs share the last level.  A
        sum adds no level; it runs after the ops of the level of its last
        input, before the next level's ops.  The ops of one level read no
        row another of them writes."""
        steps = self.steps
        writer, inputs = {}, []
        for index, (step, args, reads) in enumerate(steps):
            node = args[4] if step == "op" else args[0]
            inputs.append({writer[read] for read in (*reads, node) if read in writer})
            writer[node] = index
        below = [0] * len(steps)  # the most ops on a path from each step's output on
        for index in reversed(range(len(steps))):
            depth = below[index] + (steps[index][0] == "op")
            for p in inputs[index]:
                below[p] = max(below[p], depth)
        top = max([below[index] + 1 for index, (step, *_) in enumerate(steps)
                   if step == "op"], default=0)
        levels = []
        for index, (step, *_) in enumerate(steps):
            levels.append(top - below[index] if step == "op"
                          else max([levels[p] for p in inputs[index]], default=0))
        by_level = {}  # level -> (its ops, its sums), each in build order
        for index, level in enumerate(levels):
            by_level.setdefault(level, ([], []))[steps[index][0] == "sum"].append(index)
        runs, links = [], {}
        for level in sorted(by_level):
            ops, sums = by_level[level]
            fused = self._fuse(ops, links)
            if fused:
                runs.append(fused)
            runs += [[index] for index in ops + sums if index not in fused]
        return runs, links

    def _fuse(self, ops, links):
        """The ops, by build index, that one fused step runs, in the order
        of their output rows, or [] for none; links gains the block links
        that lay those rows out side by side.

        Candidates are the ops whose table folds dense, in build order,
        while their gathers stay within FUSED_SAMPLES samples and
        FUSED_ROWS rows.  Of those, the ops that write whole blocks between
        them are fused; links maps each of those blocks but the last to the
        next.  No block is written by two levels, so none was linked before.
        """
        if len(ops) < 2:
            return []
        size, rows, parts = self.grid.N, 0, {}
        starts = [node for node, _ in self._blocks]
        for index in ops:
            *_, fold, node = self.steps[index][1]
            gathered = rows + len(fold.s)
            if (fold.matrix is not None and gathered * size <= FUSED_SAMPLES
                    and gathered <= FUSED_ROWS):
                rows = gathered
                parts.setdefault(bisect_right(starts, node) - 1, []).append(
                    (node, fold.out_dim, index))
        # no two ops write one row, so ops fill a block when their output
        # rows add up to its height
        chain = [block for block, members in sorted(parts.items())
                 if sum(out for _, out, _ in members) == self._blocks[block][1]]
        fused = [index for block in chain for *_, index in sorted(parts[block])]
        if len(fused) < 2:
            return []
        links.update(zip(chain, chain[1:]))
        return fused

    def _derivative_calls(self, spec):
        """The calls that make the derivative rows of the spectra from spec
        = rfft([u; xi])."""
        return [(np.multiply, (spec[of], symbol, self.spectra[rows]))
                for rows, of, symbol in self.derivatives]

    def run(self):
        """Run the calls over the samples in the head of the stack."""
        run_calls(self.calls)


def instantiate(poly, u, xi, lam):
    """Evaluate a polynomial on concrete fields.

    Even-graded input returns an EvenField, odd-graded an OddField; the
    zero polynomial counts as even.
    """
    (value,) = _Program.compile((poly,), u.grid, u.descriptor, lam)(u, xi)
    return value


# ---------------------------------------------------------------------------
# equality modulo total derivatives

def _grade(key):
    """What D keeps of a monomial, and its order, which D raises by one:
    (u-degree, bracket count, odd flag, power of L, sum of its derivative
    orders)."""
    even, comms, odd, power = key
    order = sum(even) + sum(a + b for a, b in comms) + (odd or 0)
    return len(even), len(comms), odd is not None, power, order


def _multisets(items, k, total):
    """The sorted k-tuples, repeats allowed, of the items of (item, order)
    pairs, listed in item order, whose orders sum to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for i, (item, order) in enumerate(items):
        if order <= total:
            for rest in _multisets(items[i:], k - 1, total - order):
                yield (item,) + rest


def _eliminate(vector, pivot, row):
    """Subtract vector[pivot] times row from the vector (monomial ->
    coefficient) in place, dropping the zeros."""
    c = vector.get(pivot)
    if c:
        for key, v in row.items():
            total = vector.get(key, 0) - c * v
            if total:
                vector[key] = total
            else:
                del vector[key]


def _residue(rows, vector):
    """The vector less its part in the span of the reduced rows: each row
    is 1 at its pivot and 0 at every other pivot, so one pass over them
    clears every pivot."""
    out = dict(vector)
    for pivot, row in rows.items():
        _eliminate(out, pivot, row)
    return out


@lru_cache(maxsize=None)
def _image_rows(degree, brackets, odd, order):
    """D of every normal-form monomial with degree u-factors, brackets
    brackets, a bare odd factor when odd, no L and the given order, as
    reduced rows over the monomials without their power of L: pivot ->
    row, by exact Fraction elimination.  Built once per grade and shared;
    treat as read-only."""
    pairs = [((a, b), a + b) for a in range(1, order + 1) for b in range(a)
             if a + b <= order]
    rows = {}
    for s in range(order + 1):
        for even in _multisets([(k, k) for k in range(s + 1)], degree, s):
            for t in range(order - s + 1) if odd else (order - s,):
                for comms in _multisets(pairs, brackets, t):
                    key = (even, comms, order - s - t if odd else None, 0)
                    image = DiffPolynomial({key: Fraction(1)}).differentiate_total()
                    row = _residue(rows, {k[:3]: c for k, c in image.terms.items()})
                    if not row:
                        continue
                    pivot = max(row)
                    row = {k: c / row[pivot] for k, c in row.items()}
                    for other in rows.values():
                        _eliminate(other, pivot, row)
                    rows[pivot] = row
    return rows


def _residues(poly):
    """(group, residue) for each grade of poly's terms, in grade order: the
    group is the terms of that grade and the residue its part outside Im D,
    both DiffPolynomials, the residue zero exactly when the group is a total
    derivative.  A group of order 0 is its own residue."""
    groups = {}
    for key, c in poly.terms.items():
        groups.setdefault(_grade(key), {})[key] = c
    for grade in sorted(groups):
        degree, brackets, odd, power, order = grade
        group = groups[grade]
        if order:
            rest = _residue(_image_rows(degree, brackets, odd, order - 1),
                            {key[:3]: c for key, c in group.items()})
            residue = {key + (power,): c for key, c in rest.items()}
        else:
            residue = group
        yield DiffPolynomial(group), DiffPolynomial(residue)


class EquivalenceVerdict:
    """Outcome of the exact density comparison: equal, or the text of the
    first group of p - q, in grade order, that is no total derivative."""

    def __init__(self, equal, witness=None):
        self.equal = equal
        self.witness = witness

    def __bool__(self):
        return self.equal

    def __repr__(self):
        if self.equal:
            return "equal (exact)"
        return f"different (witness {self.witness})"


def equal_mod_total_derivative(p, q, seed=None):
    """Exact decision of p == q modulo total x-derivatives.

    D keeps a monomial's u-degree, bracket count, odd flag and power of L
    and raises its order by one, so p - q is a total derivative exactly
    when each group of its terms of one grade and order w lies in the span
    of D of every monomial of that grade and order w - 1 (a group of order
    0 never does): one Fraction elimination per group (_residues).  The
    verdict holds in the free model of the normal form, brackets being
    independent symbols: "equal" then holds on every backend, while a
    "different" may still vanish on a realized one, as the L^2 [xi', xi]^2
    sector does.  seed is ignored.
    """
    if not (p.is_even() and q.is_even()):
        raise GradingError("densities must be even-graded")
    for group, residue in _residues(p - q):
        if not residue.is_zero():
            return EquivalenceVerdict(False, to_text(group))
    return EquivalenceVerdict(True)


# ---------------------------------------------------------------------------
# deformation expansion and the conserved-quantity table

@lru_cache(maxsize=None)
def gardner_coefficients(order):
    """Symbolic inverse-deformation coefficients (z_n, sigma_n), n <= order.

    Built once per order and shared between calls; treat as read-only."""
    order = finite_number("order", order, int)
    if order > 10:
        raise SuperKdVError("supported up to order 10")
    zs = [DiffPolynomial.u()]
    ss = [DiffPolynomial.xi()]
    for n in range(1, order + 1):
        zn = -zs[n - 1].differentiate_total()
        sn = -ss[n - 1].differentiate_total()
        for a in range(n - 1):
            b = n - 2 - a
            zn = zn - zs[a] * zs[b]
            zn = zn - commutator(ss[a].differentiate_total(), ss[b]).scaled(1, 1)
            sn = sn - zs[a] * ss[b]
        zs.append(zn)
        ss.append(sn)
    return tuple(zip(zs, ss))


# label -> conserved density (H0..H6 extended, H modified)
_DENSITY_TEXTS = {
    "H0": "u",
    "H2": "u^2 + L*[xi',xi]",
    "H4": "2*u^3 + u'^2 + 4*L*u*[xi',xi] + L*[xi'',xi']",
    "H6": "5*u^4 + 10*u*u'^2 + u''^2 + 15*L*u^2*[xi',xi] - 2*L*u*[xi'',xi']"
          " - 8*L*u*[xi''',xi] + 3*L^2*[xi',xi]^2 + L*[xi''',xi'']",
    "H": "1/2*u'^2 + 1/2*u^4 + 1/2*L^2*[xi,xi']^2 + 1/2*L*[xi'',xi']"
         " + 3/2*L*u^2*[xi',xi]",
}


@lru_cache(maxsize=None)
def density_poly(label):
    """The density labelled H0, H2, H4, H6 (extended system) or H
    (modified system), whose quadrature that system's flow conserves.

    The L^2 [xi', xi]^2 terms of H6 and H vanish in every admissible
    realization (brackets sharing an argument multiply to zero, the
    "[q1, q2][q3, q4] antisymmetric in q1, q3" line of check algebra) but are
    kept for fidelity to the deformation expansion.  Parsed once per
    label and shared; treat as read-only.
    """
    if label not in _DENSITY_TEXTS:
        raise SuperKdVError(f"no conserved density tabulated for {label!r}")
    return parse(_DENSITY_TEXTS[label])


def conserved_density_poly(n):
    """The H_n density of the extended system, n in {0, 2, 4, 6}."""
    return density_poly(f"H{n}")


class CoefficientTable:
    """Result of matching deformation integrals against the H_n family."""

    def __init__(self, entries, odd_orders_vanish):
        self.entries = entries
        self.odd_orders_vanish = odd_orders_vanish

    @property
    def all_ok(self):
        return self.odd_orders_vanish and all(e["verified"] for e in self.entries)

    def as_dict(self):
        return {"entries": [dict(e, c=str(e["c"])) for e in self.entries],
                "odd_orders_vanish": self.odd_orders_vanish}

    def __str__(self):
        lines = ["order   constant   verified"]
        for e in self.entries:
            lines.append(f"{e['n']:>5}   {str(e['c']):>8}   "
                         f"{'yes' if e['verified'] else 'NO'}")
        lines.append("odd-order integrals vanish: "
                     f"{'yes' if self.odd_orders_vanish else 'NO'}")
        return "\n".join(lines)


def _residue_of(poly):
    """poly's part outside Im D, summed over its grades."""
    return sum((residue for _, residue in _residues(poly)), DiffPolynomial())


def reproduce_conserved_quantities(max_order=6):
    """Solve for the constants c with int z_n == c * H_n mod total derivatives.

    The residue modulo Im D is linear, so z_n - c H_n is a total
    derivative exactly when residue(z_n) = c residue(H_n): c is read off
    one monomial of residue(H_n) and the equation checked term by term, in
    exact rationals.  Every odd order must be a total derivative.  Returns
    a CoefficientTable.
    """
    max_order = finite_number("max_order", max_order, int)
    if max_order < 0 or max_order % 2 or max_order > 6:
        raise SuperKdVError(f"max_order must be even, nonnegative and at most 6, got {max_order}")
    coeffs = gardner_coefficients(max_order)
    odd_ok = all(_residue_of(coeffs[n][0]).is_zero() for n in range(1, max_order + 1, 2))
    entries = []
    for n in range(0, max_order + 1, 2):
        z, h = _residue_of(coeffs[n][0]), _residue_of(conserved_density_poly(n))
        key = next(iter(h.terms), None)
        c = Fraction(0) if key is None else z.terms.get(key, 0) / h.terms[key]
        entries.append({"n": n, "c": c, "verified": (z - h.scaled(c)).is_zero()})
    return CoefficientTable(entries, odd_ok)


# ---------------------------------------------------------------------------
# nonlinear terms of the evolution systems and the maps onto the extended one

# power of e -> ((even flux, odd flux), (even source, odd source))
_NONLINEAR_TEXTS = {
    "extended": {0: (("3*u^2", "3*u*xi"), ("3*L*[xi'',xi]", "0"))},
    "gardner": {
        0: (("3*u^2 + 3*L*[xi',xi]", "3*u*xi"), ("0", "0")),
        2: (("2*u^3 + 3*L*u*[xi',xi]", "0"),
            ("0", "3*u^2*xi' + 3*u*u'*xi + 3*L*[xi',xi]*xi'")),
    },
    "modified": {0: (("2*u^3 + 3*L*u*[xi',xi]", "0"),
                     ("0", "3*u^2*xi' + 3*u*u'*xi - L*[xi,xi']*xi'"
                           " - 1/2*L*[xi,xi'']*xi"))},
}

# power of e -> (image u, image xi)
_MAP_TEXTS = {
    "miura": {0: ("u' + u^2 - L*[xi,xi']", "xi' + u*xi")},
    "gardner": {0: ("u", "xi"), 1: ("u'", "xi'"), 2: ("u^2 + L*[xi',xi]", "u*xi")},
}


@lru_cache(maxsize=None)
def nonlinear_terms(kind):
    """Nonlinear terms of a system in conservative form: (power of e,
    (even flux, odd flux), (even source, odd source)) triples, each field's
    term being the sum of e^power (D(flux) + source) over them.  Parsed
    once per kind and shared; treat as read-only."""
    if kind not in _NONLINEAR_TEXTS:
        raise SuperKdVError(f"no nonlinear terms written for system {kind!r}")
    return tuple((power, tuple(map(parse, fluxes)), tuple(map(parse, sources)))
                 for power, (fluxes, sources) in _NONLINEAR_TEXTS[kind].items())


@lru_cache(maxsize=None)
def map_terms(kind):
    """The "miura" or "gardner" map onto the extended fields as (power of
    e, (image u, image xi)) pairs, each image the sum of e^power times its
    polynomial.  Parsed once per kind and shared; treat as read-only."""
    return tuple((power, tuple(map(parse, images)))
                 for power, images in _MAP_TEXTS[kind].items())


# ---------------------------------------------------------------------------
# formal time derivative along the extended flow

def _rhs_polys():
    """u_t and xi_t of the extended system: -f''' + D(flux) + source."""
    ((_, (flux_u, flux_xi), (source_u, source_xi)),) = nonlinear_terms("extended")
    u_t = -DiffPolynomial.u(3) + flux_u.differentiate_total() + source_u
    xi_t = -DiffPolynomial.xi(3) + flux_xi.differentiate_total() + source_xi
    return u_t, xi_t


def evolutionary_derivative(poly):
    """Formal d/dt of a polynomial along the extended flow.

    Substitutes the right-hand sides for u_t and xi_t through the Leibniz
    rule; useful for checking conservation symbolically, e.g.
    equal_mod_total_derivative(evolutionary_derivative(H), 0).
    """
    u_t, xi_t = _rhs_polys()

    @lru_cache(maxsize=None)
    def ut(k):
        return u_t if k == 0 else ut(k - 1).differentiate_total()

    @lru_cache(maxsize=None)
    def xit(c):
        return xi_t if c == 0 else xit(c - 1).differentiate_total()

    # dropping one factor from a sorted key leaves it sorted, so each rest
    # is already a normal-form monomial
    out = DiffPolynomial()
    for (even, comms, odd, power), c in poly.terms.items():
        for i, k in enumerate(even):
            rest = DiffPolynomial({(even[:i] + even[i + 1:], comms, odd, power): c})
            out = out + rest * ut(k)
        for i, (a, b) in enumerate(comms):
            rest = DiffPolynomial({(even, comms[:i] + comms[i + 1:], odd, power): c})
            slot = commutator(xit(a), DiffPolynomial.xi(b)) \
                + commutator(DiffPolynomial.xi(a), xit(b))
            out = out + rest * slot
        if odd is not None:
            out = out + DiffPolynomial({(even, comms, None, power): c}) * xit(odd)
    return out

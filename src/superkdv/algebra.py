"""Graded algebra backends.

An element splits into an even part (commutative, with unit) and an odd
part.  The evolution systems only ever use three products:

    even_mul:        even * even -> even   (commutative, associative)
    mixed_mul:       even * odd  -> odd    (even and odd parts commute,
                                            so one product suffices)
    odd_commutator:  [odd, odd]  -> even   (antisymmetric)

validate_algebra decides every axiom exactly from the integer structure
constants, with no random draw and no tolerance.  On every backend T(a,
b, c) = [q_a, q_b] q_c is totally antisymmetric over the odd basis.
Algebra.bracket_product_alternates is that proof, and the compiler relies
on it: a term [xi^(a), xi^(b)] xi^(c) with c equal to a or b is zero.

Each product is a ProductTable, stored as its basis triples (i, j, k, s):
out[k] is the sum of s a[i] b[j] over them.  A product gathers a[i] *
b[j] for every triple and folds them onto the output channels (Fold).  A
dense fold is one matrix product with the signed (out_dim, nnz) matrix,
which multiplies out_dim times as often as needed; a grouped fold sums
each output channel over exactly its own triples, one batched matrix
product per group of channels with equal pair counts, and one take puts
the channels back in order.  Each fold is built on first use, and the
cost rule of ProductTable.fold picks one from the table and the number
of samples per channel: grouped once the dense fold would waste at least
GROUP_WASTE multiply-adds.  So small tables keep the dense fold, and no
large dense matrix is ever made.

Compiled code reads two smaller exact tables, each built on first use.
The commutator is half(a, b) - half(b, a) for a half table; where
Algebra.odd_half_antisymmetric proves half(b, a) = -half(a, b) the same
way (grassmann, whose half is the odd product), its
gather table is the half one with coefficients 2 s, [a, b] = 2ab.  And a
product of one operand with itself gathers its square table
(square_fold): the triples merged by unordered pair {i, j}, coefficient
s_ij + s_ji, which is exact for any bilinear product.

Three backends realize the interface:

  scalar        plain reals, no odd part.
  grassmann:N   exterior algebra on N anticommuting generators t1..tN,
                graded by monomial degree parity.  The full odd*odd
                product is exposed as odd_mul.
  symplectic:n  Q = R^(2n) carrying the standard symplectic form
                omega(e_i, e_(n+i)) = 1.  The even part is the
                dual-number plane span{unit, nil} with nil*nil = 0 and
                nil*q = 0 for odd q, and [q, p] = omega(q, p)*nil.
                This nilpotent Heisenberg quotient is associative, so
                every product identity the transformations rely on
                (e.g. q1*[q2,q3] = [q1,q2]*q3 and [q,p]^2 = 0) holds
                exactly; a model with [q, p] proportional to the unit
                would violate them.

Basis order is fixed so snapshots are portable: Grassmann monomials by
ascending generator bitmask, symplectic odd basis e1..en, e(n+1)..e(2n).
All coordinate arrays carry the channel on the leading axis, so the same
tables serve single values (dim,) and grid fields (dim, N).  The two
operands of a product must have equal trailing axes; they do not
broadcast, and a mismatch raises SuperKdVError.
"""

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import DescriptorMismatch, GradingError, SuperKdVError, whole_number

KINDS = ("scalar", "grassmann", "symplectic")


def _popcount(m):
    return bin(m).count("1")


def _grassmann_label(mask):
    if mask == 0:
        return "unit"
    return "".join(f"t{b + 1}" for b in range(mask.bit_length()) if mask >> b & 1)


class AlgebraDescriptor:
    """Backend selector; serializes to "scalar", "grassmann:N" or "symplectic:n".

    grassmann:1 is constructible: validate_algebra reports its
    nondegeneracy failure, and the dynamics accept it with every bracket
    term vanishing ([t1, t1] = 0).
    """

    _MAX_GENERATORS = {"grassmann": 10, "symplectic": 64}

    def __init__(self, kind, generators=0):
        if kind not in KINDS:
            raise SuperKdVError(f"unknown algebra kind {kind!r}")
        if kind == "scalar":
            generators = 0
        elif whole_number("generator count", generators) < 1:
            raise SuperKdVError(f"{kind} backend needs a positive generator count")
        elif generators > self._MAX_GENERATORS[kind]:
            raise SuperKdVError(
                f"{kind}:{int(generators)} exceeds the supported maximum "
                f"{kind}:{self._MAX_GENERATORS[kind]}")
        self.kind = kind
        self.generators = int(generators)

    @property
    def even_dim(self):
        if self.kind == "grassmann":
            return 2 ** (self.generators - 1)
        if self.kind == "symplectic":
            return 2  # unit and nil channels
        return 1

    @property
    def odd_dim(self):
        if self.kind == "grassmann":
            return 2 ** (self.generators - 1)
        if self.kind == "symplectic":
            return 2 * self.generators
        return 0

    @property
    def even_labels(self):
        if self.kind == "grassmann":
            n = self.generators
            return tuple(_grassmann_label(m) for m in range(2 ** n) if _popcount(m) % 2 == 0)
        if self.kind == "symplectic":
            return ("unit", "nil")
        return ("unit",)

    @property
    def odd_labels(self):
        if self.kind == "grassmann":
            n = self.generators
            return tuple(_grassmann_label(m) for m in range(2 ** n) if _popcount(m) % 2 == 1)
        if self.kind == "symplectic":
            return tuple(f"e{i + 1}" for i in range(2 * self.generators))
        return ()

    def __str__(self):
        if self.kind == "scalar":
            return "scalar"
        return f"{self.kind}:{self.generators}"

    def __repr__(self):
        return f"AlgebraDescriptor({str(self)!r})"

    def __eq__(self, other):
        return (isinstance(other, AlgebraDescriptor)
                and self.kind == other.kind and self.generators == other.generators)

    def __hash__(self):
        return hash((self.kind, self.generators))

    @staticmethod
    def from_string(text):
        text = text.strip()
        if text == "scalar":
            return AlgebraDescriptor("scalar")
        if ":" in text:
            kind, _, num = text.partition(":")
            kind = kind.strip()
            try:
                gen = int(num)
            except ValueError:
                raise SuperKdVError(f"bad generator count in descriptor {text!r}")
            return AlgebraDescriptor(kind, gen)
        raise SuperKdVError(f"bad algebra descriptor {text!r}; "
                            "expected scalar, grassmann:N or symplectic:n")


def _coo(triples):
    """(i, j, k, s) of the basis triples as arrays: integer indices and
    the signs s as given."""
    coo = np.array(triples, dtype=float).reshape(-1, 4)
    i, j, k = coo[:, :3].T.astype(np.intp)
    return i, j, k, coo[:, 3].copy()


# The cost rule of ProductTable.fold: group the fold once the dense matrix
# would waste at least this many multiply-adds per call.  A grouped fold
# pays a matrix-vector product per channel and one take of the output
# rows, which the zeros it skips outweigh from about here.  Measured with
# one OpenBLAS thread on the product and square tables of grassmann:3-6
# and symplectic:2-3 at 64 to 16384 samples: the grouped fold was faster
# in 5 of 98 cases below 1e5, 6 of 16 from 1e5 to 3e5 and 52 of 54 above
# (at most 1.4 times slower there).
GROUP_WASTE = 3e5


def fold_into(groups, inverse, folded, out):
    """Run a fold bound by Fold.bind: one matmul per group (a multiply for
    a group of one pair per channel), then, when the folded rows are not
    in channel order, one take that puts them there."""
    for function, coefficients, products, rows in groups:
        function(coefficients, products, out=rows)
    if inverse is not None:
        folded.take(inverse, axis=0, out=out, mode="clip")


class Fold:
    """One way to fold a product table's gathered products a[i] * b[j],
    one column per basis triple (i, j, k, s), onto its output channels.

    i, j, k and s are the triples in the order the columns are gathered.
    Each of the groups (rows, columns, coefficients) folds its columns of
    the products into its rows of the folded array with one matmul by its
    coefficients, and channels names the output channel of each folded
    row.  A dense fold is one group: the signed (out_dim, nnz) matrix with
    fold[k_t, t] = s_t, the columns in table order, folding straight into
    the output (inverse None).  A grouped fold orders the columns by output
    channel and the channels by their pair count c; the channels of one
    count are one group, whose (n, 1, c) coefficients fold its (n, c,
    size) products in one batched matmul, so each channel sums exactly its
    own c products, and one take by inverse, channels' inverse
    permutation, puts the folded rows back in channel order.  A channel
    with no pairs is in a group with c = 0 and comes out 0.
    """

    __slots__ = ("i", "j", "k", "s", "channels", "groups", "inverse")

    def __init__(self, i, j, k, s, channels, groups, inverse):
        self.i, self.j, self.k, self.s = map(_frozen, (i, j, k, s))
        self.channels, self.groups, self.inverse = channels, groups, inverse

    @property
    def out_dim(self):
        return len(self.channels)

    @property
    def matrix(self):
        """The signed (out_dim, nnz) matrix of a dense fold; None for a
        grouped one."""
        coefficients = self.groups[0][2]
        return coefficients if coefficients.ndim == 2 else None

    def scaled(self, c):
        """This fold with every coefficient times c."""
        return Fold(self.i, self.j, self.k, c * self.s, self.channels,
                    tuple((rows, columns, _frozen(c * coefficients))
                          for rows, columns, coefficients in self.groups), self.inverse)

    def bind(self, products, out, folded):
        """The arguments of fold_into that fold the (nnz, size) products
        into out, (out_dim, size); folded is scratch of at least out_dim
        rows for a fold that needs the take.  Every array bound is a view
        of products, out or folded."""
        size = products.shape[1]
        target = out if self.inverse is None else folded[:self.out_dim]
        bound = []
        for rows, columns, coefficients in self.groups:
            function, part, into = np.matmul, products[columns], target[rows]
            if coefficients.ndim == 3:
                n, _, c = coefficients.shape
                if c == 1:  # matmul is about twice as slow on one-term sums
                    function, coefficients = np.multiply, coefficients.reshape(n, 1)
                else:
                    part, into = part.reshape(n, c, size), into.reshape(n, 1, size)
            bound.append((function, coefficients, part, into))
        return bound, self.inverse, target, out


class ProductTable:
    """The product out[k] = sum of s a[i] b[j] over its basis triples (i, j,
    k, s), onto out_dim channels; read-only.

    It is stored as the triples alone.  Its two folds, dense and grouped,
    are each built on first use, and fold(size) chooses between them."""

    def __init__(self, i, j, k, s, out_dim):
        self.i, self.j, self.k, self.s = map(_frozen, (i, j, k, s))
        self.out_dim = out_dim

    def fold(self, size):
        """The fold for operands of size samples per channel: the grouped
        one once the dense one would waste GROUP_WASTE multiply-adds or
        more, as it makes out_dim * nnz * size where nnz * size are
        useful; else the dense one."""
        if (self.out_dim - 1) * len(self.s) * size >= GROUP_WASTE:
            return self.grouped
        return self.dense

    @cached_property
    def dense(self):
        """The fold through one signed (out_dim, nnz) matrix."""
        nnz = len(self.s)
        matrix = np.zeros((self.out_dim, nnz))
        matrix[self.k, np.arange(nnz)] = self.s
        return Fold(self.i, self.j, self.k, self.s, np.arange(self.out_dim),
                    ((slice(0, self.out_dim), slice(0, nnz), _frozen(matrix)),), None)

    @cached_property
    def grouped(self):
        """The fold per output channel, its channels grouped by pair count."""
        counts = np.bincount(self.k, minlength=self.out_dim)
        # the channels by pair count, then index, and the columns in that
        # order of their channels, each channel's in table order
        channels = np.argsort(counts, kind="stable")
        order = np.lexsort((self.k, counts[self.k]))
        s = self.s[order]
        counts, starts = np.unique(counts[channels], return_index=True)
        groups, column = [], 0
        for c, start, stop in zip(counts, starts, [*starts[1:], self.out_dim]):
            width = (stop - start) * c
            coefficients = s[column:column + width].reshape(stop - start, 1, c)
            groups.append((slice(start, stop), slice(column, column + width),
                           _frozen(coefficients)))
            column += width
        in_order = np.array_equal(channels, np.arange(self.out_dim))
        return Fold(self.i[order], self.j[order], self.k[order], s, channels, tuple(groups),
                    None if in_order else np.argsort(channels))


def _apply(table, dims, a, b):
    """The product of table on operands a and b of dims channels, as a
    fresh (out_dim,) + shape array, folded as fold(size) chooses."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[:1] + b.shape[:1] != dims or a.shape[1:] != b.shape[1:]:
        raise SuperKdVError(
            f"operand shapes {a.shape} and {b.shape} do not fit a product "
            f"of {dims[0]} by {dims[1]} channels with equal trailing axes")
    shape = a.shape[1:]
    size = math.prod(shape)
    fold = table.fold(size)
    out = np.empty((table.out_dim, size))
    folded = None if fold.inverse is None else np.empty_like(out)
    fold_into(*fold.bind((a[fold.i] * b[fold.j]).reshape(len(fold.s), size), out, folded))
    return out.reshape((table.out_dim,) + shape)


def _proven(identity, *tables):
    """identity on the (i, j, k, s) triples of the ProductTables as int64
    arrays, or None unless every s is an integer of at most 16 bits, so
    that no int64 sum of products of constants overflows.  A NaN or
    infinite s gives None too, without a numpy warning."""
    if not all(((np.abs(t.s) <= np.iinfo(np.int16).max) & (np.trunc(t.s) == t.s)).all()
               for t in tables):
        return None
    return identity(*(tuple(c.astype(np.int64) for c in (t.i, t.j, t.k, t.s)) for t in tables))


def _join(first, second, side):
    """The terms of first's product fed into operand side (0 left, 1
    right) of second's, from the integer triples of both: each triple (i,
    j, k, s) of first pairs with each triple of second whose operand side
    is channel k, giving s t to that triple's output channel m.  The
    columns are the three operands in order, then m, then s t: (i, j, c,
    m, s t) for (a b) c, (c, i, j, m, s t) for c (a b)."""
    i, j, k, s = first
    *operands, m, t = second
    order = np.argsort(operands[side], kind="stable")
    channels = operands[side][order]
    lo, hi = np.searchsorted(channels, k, "left"), np.searchsorted(channels, k, "right")
    counts = hi - lo
    left = np.repeat(np.arange(len(k)), counts)
    right = order[np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    pair, c = (i[left], j[left]), operands[1 - side][right]
    ordered = (*pair, c) if side == 0 else (c, *pair)
    return (*ordered, m[right], s[left] * t[right])


def _swapped(terms, column, sign):
    """A sum of integer terms (index columns, then values) with index
    columns column and column + 1 exchanged and every value times sign."""
    *indices, values = terms
    indices[column], indices[column + 1] = indices[column + 1], indices[column]
    return (*indices, sign * values)


def _keyed(terms, radix):
    """The distinct index tuples of a sum of integer terms as keys in base
    radix, ascending, and the sum of the values over each, the zero sums
    dropped."""
    *indices, values = terms
    keys = np.zeros(len(values), np.int64)
    for index in indices:
        keys = keys * radix + index
    return _merged(keys, values)


def _same(first, second):
    """Whether two sums of integer terms with the same index columns are
    equal: equal once the terms of each index tuple are summed."""
    radix = 1 + max(int(index.max(initial=0)) for index in (*first[:-1], *second[:-1]))
    return all(map(np.array_equal, _keyed(first, radix), _keyed(second, radix)))


def _alternating(bracket, mixed):
    """Whether T(a, b, c) = [q_a, q_b] q_c changes sign under each swap of
    two neighbouring arguments, which makes it totally antisymmetric; an
    entry with two equal arguments must then be zero."""
    terms = _join(bracket, mixed, 0)
    return all(_same(terms, _swapped(terms, column, -1)) for column in (0, 1))


def _doubling(bracket, product):
    """Whether the bracket is twice the product: [a, b] = 2 product(a, b)."""
    i, j, k, s = product
    return _same(bracket, (i, j, k, 2 * s))


def _merged(keys, values):
    """The distinct keys, ascending, and the sum of the values over each,
    the keys whose sum is zero dropped."""
    if not len(keys):
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(values[order], starts)
    keep = sums != 0
    return keys[starts][keep], sums[keep]


def _square(table, dim):
    """The table on one operand a, a * a: its triples merged by unordered
    pair {i, j} with i <= j, each coefficient s_ij + s_ji (s_ii on the
    diagonal), the zero ones dropped.  Exact for any bilinear table, since
    a[i] a[j] = a[j] a[i]; no index reaches dim."""
    i, j, k, out_dim = table.i, table.j, table.k, table.out_dim
    keys, s = _merged((np.minimum(i, j) * dim + np.maximum(i, j)) * out_dim + k, table.s)
    pairs, k = np.divmod(keys, out_dim)
    return ProductTable(*np.divmod(pairs, dim), k, s, out_dim)


def _frozen(array):
    array.flags.writeable = False
    return array


def _grassmann_products(n):
    """(i, j, k, s) arrays of the full exterior product's basis triples,
    split by operand grading into even*even, even*odd and odd*odd; each in
    the order of the operand masks (a, b), a first, s as floats.

    For monomials a and b sharing no generator, a b is sign s times the
    monomial a | b, s counting the transpositions that sort the
    generators: a generator of b passes each generator of a above it."""
    masks = np.arange(2 ** n)
    parity = np.bitwise_count(masks) % 2
    # each mask's index among the masks of its grading
    index = np.empty_like(masks)
    for p in (0, 1):
        index[parity == p] = np.arange(2 ** (n - 1))
    a, b = np.divmod(np.arange(4 ** n), 2 ** n)
    free = (a & b) == 0  # a repeated generator annihilates the product
    a, b = a[free], b[free]
    passes = sum(np.bitwise_count(a >> (bit + 1)) * (b >> bit & 1) for bit in range(n))
    s = np.where(passes % 2, -1.0, 1.0)
    k = index[a | b]
    i, j = index[a], index[b]
    pa, pb = parity[a], parity[b]
    # odd*even is recovered from even*odd since [Q, P] = 0
    return tuple((i[m], j[m], k[m], s[m]) for m in ((pa == 0) & (pb == 0),
                                                   (pa == 0) & (pb == 1),
                                                   (pa == 1) & (pb == 1)))


class Algebra:
    """Product tables for one descriptor; all methods are pure.

    Arguments are plain coordinate arrays (leading axis = channel).  The
    graded elements below, values here and fields in fields.py, check
    their operands and then call these methods; compiled code reads the
    tables through gather_fold instead.  Each table is a read-only
    ProductTable, stored as its basis triples and built once; its folds
    are built on the first product that needs them.  Every product returns
    a fresh array, so threads may share the one Algebra that get_algebra
    returns per descriptor.
    """

    def __init__(self, descriptor):
        self.descriptor = descriptor
        E, O = self._dims = descriptor.even_dim, descriptor.odd_dim
        if descriptor.kind == "scalar":
            ee, mixed, half = map(_coo, ([(0, 0, 0, 1)], [], []))
        elif descriptor.kind == "symplectic":
            n = descriptor.generators
            ee, mixed, half = map(_coo, (
                [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],  # nil*nil = 0 omitted
                [(0, j, j, 1) for j in range(O)],  # nil annihilates Q
                [(i, n + i, 1, 1.0) for i in range(n)]))
        else:
            ee, mixed, half = _grassmann_products(descriptor.generators)
        # one orientation only; the commutator is half(a,b) - half(b,a), which
        # makes antisymmetry bitwise exact instead of roundoff-exact.  Where
        # odd_half_antisymmetric proves half(b,a) = -half(a,b), as on
        # grassmann, its compiled table is the half one with coefficients 2 s
        self._half = ProductTable(*half, E)
        self._tables = {"even_mul": ProductTable(*ee, E),
                        "mixed_mul": ProductTable(*mixed, O)}
        if descriptor.kind == "grassmann":
            self._tables["odd_mul"] = self._half  # the half of [a,b] = ab - ba is ab
        self._squares = {}  # square tables, each built on first use

    @cached_property
    def _bracket(self):
        """The commutator's table, half(a, b) - half(b, a): the half
        table's triples, then each with its operands swapped and its
        coefficient negated; built on first use."""
        half = self._half
        return ProductTable(np.concatenate((half.i, half.j)), np.concatenate((half.j, half.i)),
                            np.concatenate((half.k, half.k)), np.concatenate((half.s, -half.s)),
                            half.out_dim)

    @cached_property
    def bracket_product_alternates(self):
        """Whether T(a, b, c) = [q_a, q_b] q_c is totally antisymmetric over
        the odd basis, proven exactly from the integer basis triples of the
        commutator and mixed_mul tables; computed on first use.  Then [q1,
        q2] q3 vanishes whenever two of the odd elements are equal."""
        return bool(_proven(_alternating, self._bracket, self._tables["mixed_mul"]))

    @cached_property
    def odd_half_antisymmetric(self):
        """Whether the half table of the commutator is antisymmetric,
        half(b, a) = -half(a, b), that is [a, b] = 2 half(a, b), proven
        exactly from its integer basis triples; computed on first use.  True
        on grassmann, where half is the odd product, false on symplectic."""
        return bool(_proven(_doubling, self._bracket, self._half))

    def unit(self):
        u = np.zeros(self.descriptor.even_dim)
        u[0] = 1.0
        return u

    def even_mul(self, a, b):
        E, _ = self._dims
        return _apply(self._tables["even_mul"], (E, E), a, b)

    def mixed_mul(self, a, q):
        return _apply(self._tables["mixed_mul"], self._dims, a, q)

    def odd_commutator(self, q1, q2):
        _, O = self._dims
        out = _apply(self._half, (O, O), q1, q2)
        out -= _apply(self._half, (O, O), q2, q1)
        return out

    def odd_mul(self, q1, q2):
        _, O = self._dims
        return _apply(self.gather_fold("odd_mul"), (O, O), q1, q2)

    def gather_fold(self, product):
        """The ProductTable of the named product method, for code that
        compiles its products itself: its value at (a, b) is that of the
        fold its fold(size) returns on the gathered a[i] * b[j].  The
        odd_commutator's is built on first use: the half table with
        coefficients 2 s where odd_half_antisymmetric holds, else both
        halves, half(a, b) - half(b, a).  Either equals the method's value
        up to the order of summation."""
        if product == "odd_commutator" and product not in self._tables:
            half = self._half
            self._tables[product] = (
                ProductTable(half.i, half.j, half.k, 2.0 * half.s, half.out_dim)
                if self.odd_half_antisymmetric else self._bracket)
        if product == "odd_mul" and product not in self._tables:
            raise GradingError(
                f"the {self.descriptor.kind} backend has no odd*odd product; "
                "only the commutator is part of the interface")
        return self._tables[product]

    def square_fold(self, product):
        """The ProductTable of the named product of one operand with
        itself, whose value at b = a is the product's; read-only and built
        on first use.  Its triples are gather_fold's merged by unordered
        pair {i, j}, i <= j, so it gathers about half the rows."""
        table = self._squares.get(product)
        if table is None:
            if product == "mixed_mul":
                raise GradingError("mixed_mul takes an even and an odd operand, "
                                   "never one operand twice")
            table = self._squares[product] = _square(self.gather_fold(product),
                                                     max(self._dims))
        return table


@lru_cache(maxsize=None)
def _cached_algebra(kind, generators):
    return Algebra(AlgebraDescriptor(kind, generators))


def get_algebra(descriptor):
    return _cached_algebra(descriptor.kind, descriptor.generators)


def value_norm(coords):
    """Max-absolute-coordinate norm used for all drift and residual reports."""
    coords = np.asarray(coords)
    return float(np.max(np.abs(coords))) if coords.size else 0.0


class _Graded:
    """Arithmetic of a graded element, written once for algebra values and
    grid fields.

    An element is an even or odd coordinate array over one descriptor,
    channel on the leading axis: (dim,) for a value, (dim, N) for a field.
    Sums stay within one grading, even*even is even, even*odd is odd,
    odd*even goes through [Q, P] = 0, and a bare odd*odd product is refused;
    _OddGraded adds the commutator and the grassmann odd_mul.  A family
    exposes its array as _array and supplies two things: _build(odd,
    array), an element of either grading like this one, and
    _require_compatible(other), which raises unless the two may combine.
    """

    __slots__ = ()

    _odd = False

    @classmethod
    def _dim(cls, descriptor):
        return descriptor.odd_dim if cls._odd else descriptor.even_dim

    def norm(self):
        return value_norm(self._array)

    def __add__(self, other):
        if type(other) is not type(self):
            raise GradingError(f"cannot add {type(self).__name__} and {type(other).__name__}")
        self._require_compatible(other)
        return self._build(self._odd, self._array + other._array)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._build(self._odd, -self._array)

    def __mul__(self, other):
        if not isinstance(other, _Graded):
            return self._build(self._odd, self._array * float(other))
        if self._odd:
            if other._odd:
                raise GradingError("bare odd*odd product is not part of the interface; "
                                   "use commutator() (or odd_mul on the grassmann backend)")
            return other * self  # [Q, P] = 0
        self._require_compatible(other)
        algebra = get_algebra(self.descriptor)
        product = algebra.mixed_mul if other._odd else algebra.even_mul
        return self._build(other._odd, product(self._array, other._array))

    __rmul__ = __mul__


class _OddGraded(_Graded):
    """The products only odd elements have."""

    __slots__ = ()

    _odd = True

    def commutator(self, other):
        self._require_compatible(other)
        return self._build(False, get_algebra(self.descriptor).odd_commutator(
            self._array, other._array))

    def odd_mul(self, other):
        self._require_compatible(other)
        return self._build(False, get_algebra(self.descriptor).odd_mul(
            self._array, other._array))


class _Value(_Graded):
    __slots__ = ("descriptor", "coords")

    def __init__(self, descriptor, coords):
        coords = np.asarray(coords, dtype=float)
        dim = self._dim(descriptor)
        if coords.shape != (dim,):
            raise SuperKdVError(f"expected {dim} coordinates, got shape {coords.shape}")
        self.descriptor = descriptor
        self.coords = coords

    @classmethod
    def zero(cls, descriptor):
        return cls(descriptor, np.zeros(cls._dim(descriptor)))

    @property
    def _array(self):
        return self.coords

    def _build(self, odd, coords):
        return (OddValue if odd else EvenValue)(self.descriptor, coords)

    def _require_compatible(self, other):
        if other.descriptor != self.descriptor:
            raise DescriptorMismatch(f"operands over {self.descriptor} and {other.descriptor}")

    def __eq__(self, other):
        return (type(self) is type(other) and self.descriptor == other.descriptor
                and np.array_equal(self.coords, other.coords))

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor}, {self.coords.tolist()})"


class EvenValue(_Value):
    """Element of the even part P in the fixed basis (channel 0 is the unit)."""

    @staticmethod
    def unit(descriptor):
        return EvenValue(descriptor, get_algebra(descriptor).unit())


class OddValue(_Value, _OddGraded):
    """Element of the odd part Q in the fixed basis."""


class ValidationReport:
    """Axiom check results for one descriptor."""

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self.checks = []

    def record(self, name, passed, detail=""):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c["passed"]]

    def as_dict(self):
        return {
            "descriptor": str(self.descriptor),
            "even_dim": self.descriptor.even_dim,
            "odd_dim": self.descriptor.odd_dim,
            "passed": self.passed,
            "checks": self.checks,
        }

    def __str__(self):
        lines = [f"algebra {self.descriptor}: {'pass' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "ok  " if c["passed"] else "FAIL"
            detail = f"  [{c['detail']}]" if c["detail"] else ""
            lines.append(f"  {mark} {c['name']}{detail}")
        return "\n".join(lines)


def validate_algebra(descriptor):
    """Decide the algebra axioms exactly from the integer structure constants.

    Returns a ValidationReport listing any violated axiom.  Each line
    compares two sums of integer terms over basis elements (_same): a
    product's basis triples, or those of a composite such as (a b) c that
    _join builds from two tables' triples.  A line whose tables hold a
    structure constant that is not an integer fails.  The compiler's two
    proofs are the same code on the same tables as the "[q1, q2] q3 totally
    antisymmetric" and, where the odd product is the half table,
    "commutator is twice the odd product" lines.  Nondegeneracy ([q, qhat]
    != 0 for some qhat) is decided on the generating set of Q: grassmann's
    degree-1 monomials (for N >= 3 the top odd monomial commutes with
    everything, yet the algebra is usable) and every symplectic basis
    element; grassmann:1 fails it ([t1, t1] = 0 is the only candidate).
    """
    alg = get_algebra(descriptor)
    report = ValidationReport(descriptor)
    even, mixed = alg.gather_fold("even_mul"), alg.gather_fold("mixed_mul")

    def record(name, verdict, detail):
        # verdict None: a table the line reads holds a constant that is
        # not an integer
        report.record(name, bool(verdict), "a structure constant is not an integer"
                      if verdict is None else detail)

    def unit_neutral(e):
        i, j, k, s = e
        unit, basis = i == 0, np.arange(descriptor.even_dim)  # the triples unit * b
        return _same((j[unit], k[unit], s[unit]), (basis, basis, np.ones_like(basis)))

    record("even_mul commutative", _proven(lambda e: _same(e, _swapped(e, 0, 1)), even),
           "exact, over all even basis pairs")
    record("even_mul associative", _proven(lambda e: _same(_join(e, e, 0), _join(e, e, 1)), even),
           "exact, over all even basis triples")
    record("unit neutral", _proven(unit_neutral, even), "exact, over the even basis")
    if not descriptor.odd_dim:
        return report

    def unpaired(bracket):
        # the generators q with no basis element qhat for which [q, qhat]
        # keeps a nonzero coefficient
        radix = max(descriptor.even_dim, descriptor.odd_dim)
        paired = set((_keyed(bracket, radix)[0] // radix ** 2).tolist())
        return [label for n, label in enumerate(descriptor.odd_labels) if n not in paired
                and (descriptor.kind != "grassmann" or label.count("t") == 1)]

    record("mixed_mul associative over P",
           _proven(lambda e, m: _same(_join(e, m, 0), _join(m, m, 1)), even, mixed),
           "exact, over all (even, even, odd) basis triples")
    record("odd_commutator antisymmetric",
           _proven(lambda b: _same(b, _swapped(b, 0, -1)), alg._bracket),
           "exact, over all odd basis pairs")
    record("[q1, q2] q3 totally antisymmetric", _proven(_alternating, alg._bracket, mixed),
           "exact, over all odd basis triples")
    if descriptor.kind == "grassmann":
        record("commutator is twice the odd product",
               _proven(_doubling, alg._bracket, alg.gather_fold("odd_mul")),
               "exact, over all odd basis pairs")
    missing = _proven(unpaired, alg._bracket)
    record("nondegenerate on generators", None if missing is None else not missing,
           "exact, no partner for " + ", ".join(missing) if missing else "exact, all generators pair")
    return report

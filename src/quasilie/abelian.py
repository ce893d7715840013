"""Exact integer linear algebra for finitely presented abelian groups.

Everything in this module (and the whole package) works over Z with
arbitrary-precision integers; no floating point is used anywhere.  A group is
presented by an ordered list of generator keys and an integer relation matrix
with one column per relator.  One elimination engine serves every
computation: Hermite echelon bases of integer lattices give kernels, images
and membership, and the group structure is read off the Hermite normal form
of the relation lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd
from operator import index


class ShapeMismatch(ValueError):
    """Dimensions of matrices/groups do not line up."""


class HomValidityError(ValueError):
    """A homomorphism candidate does not kill the source relations."""


class NotDivisible(ValueError):
    """Requested division has no solution in the group."""


class TorsionPresent(ValueError):
    """Operation requires a torsion-free group."""


def ext_gcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _sparse_vector(vec, n):
    """A fresh {index: nonzero} dict of a length-n dense sequence or dict;
    nonzero entries must be integers (`operator.index`)."""
    if isinstance(vec, dict):
        if vec and (min(vec) < 0 or max(vec) >= n):
            raise ShapeMismatch("sparse vector index out of range")
        return {k: index(x) for k, x in vec.items() if x}
    if len(vec) != n:
        raise ShapeMismatch("vector has wrong ambient dimension")
    # compress() skips the zeros in C; dense vectors are mostly zeros
    return {k: index(vec[k]) for k in compress(range(n), vec)}


def _dense(vec, n):
    """The length-n dense list of a sparse vector."""
    out = [0] * n
    for k, x in vec.items():
        out[k] = x
    return out


def _add_multiple(v, q, row):
    """v += q * row in place, dropping the entries that cancel (q != 0)."""
    for k, x in row.items():
        y = v.get(k, 0) + q * x
        if y:
            v[k] = y
        else:
            del v[k]


def _apply(columns, vec):
    """The sparse sum of x * columns[j] over the entries j: x of vec."""
    out = {}
    for j, x in vec.items():
        _add_multiple(out, x, columns[j])
    return out


def _combination(p, u, q, w):
    """The sparse vector p * u + q * w."""
    out = {k: p * x for k, x in u.items()} if p else {}
    if q:
        _add_multiple(out, q, w)
    return out


def _sweep(substitution, residual, v):
    """The sparse v (not changed) floor-reduced by canonical Hermite rows,
    as a fresh dict: first by the rows `substitution` {j: row} with pivot 1,
    in one pass over v, as each is 0 at every other pivot-1 column; then by
    the other rows `residual` {j: row} at the pivots that it meets, least
    first, each row read once.  A canonical row has entries only after its
    pivot, so the least pending pivot is final once reduced, and subtracting
    its row meets no pivot but those of the row, all of them later.  v comes
    last, so a group binds the rest."""
    out = dict(v)
    for k, x in v.items():
        row = substitution.get(k)
        if row is not None:
            _add_multiple(out, -x, row)
    if not residual.keys().isdisjoint(out):
        pending = list(residual.keys() & out.keys())
        heapify(pending)
        while pending:
            j = heappop(pending)
            while pending and pending[0] == j:
                heappop(pending)
            row = residual[j]
            q = out.get(j, 0) // row[j]
            if q:
                _add_multiple(out, -q, row)
                for k in residual.keys() & row.keys():
                    if k != j:
                        heappush(pending, k)
    return out


class IntMatrix:
    """Immutable integer matrix, stored as one sparse column per column.

    Each column is a {row: nonzero int} dict with its rows in increasing
    order.  `data` is the dense view, built on demand.

    >>> IntMatrix([[1, 2], [3, 4]]).mul(IntMatrix.identity(2)).data
    ((1, 2), (3, 4))
    """

    __slots__ = ("rows", "cols", "_sparse")

    def __init__(self, data, cols=None):
        """Build from dense rows of integers (`operator.index`); `cols` gives
        the width when there are none."""
        dense = [list(row) for row in data]
        widths = {len(r) for r in dense}
        if len(widths) > 1:
            raise ShapeMismatch("ragged rows")
        width = widths.pop() if widths else (0 if cols is None else cols)
        if cols is not None and width != cols:
            raise ShapeMismatch("explicit column count disagrees with data")
        sparse = [{} for _ in range(width)]
        for i, row in enumerate(dense):
            for j, x in enumerate(row):
                if x:
                    sparse[j][i] = index(x)
        self.rows, self.cols, self._sparse = len(dense), width, tuple(sparse)

    @classmethod
    def _of(cls, nrows, columns):
        """Wrap a tuple of already normalised sparse columns (not copied)."""
        m = object.__new__(cls)
        m.rows, m.cols, m._sparse = nrows, len(columns), columns
        return m

    @classmethod
    def identity(cls, n):
        return cls._of(n, tuple({i: 1} for i in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of(rows, ({},) * cols)

    @classmethod
    def from_columns(cls, columns, nrows):
        """Build from an iterable of columns, each a dense list or sparse
        dict of integers (`operator.index`)."""
        out = []
        for col in columns:
            if isinstance(col, dict):
                rows = sorted(col)
                if rows and (rows[0] < 0 or rows[-1] >= nrows):
                    raise ShapeMismatch("sparse vector index out of range")
                pairs = ((i, col[i]) for i in rows)
            elif len(col) != nrows:
                raise ShapeMismatch("vector has wrong ambient dimension")
            else:
                pairs = enumerate(col)
            out.append({i: index(v) for i, v in pairs if v})
        return cls._of(nrows, tuple(out))

    @property
    def data(self):
        """Dense rows, as a tuple of tuples."""
        dense = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._sparse):
            for i, v in col.items():
                dense[i][j] = v
        return tuple(map(tuple, dense))

    def sparse_columns(self):
        """Fresh {row: value} dicts, one per column, rows increasing."""
        return [dict(col) for col in self._sparse]

    def mul(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch("matrix product shape mismatch")
        out = []
        for col in other._sparse:
            acc = _apply(self._sparse, col)
            out.append({i: acc[i] for i in sorted(acc)})
        return IntMatrix._of(self.rows, tuple(out))

    def mul_vector(self, vec):
        """The dense product of the matrix with a dense or sparse vector."""
        return _dense(_apply(self._sparse, _sparse_vector(vec, self.cols)),
                      self.rows)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ShapeMismatch("row count mismatch")
        return IntMatrix._of(self.rows, self._sparse + other._sparse)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self._sparse == other._sparse)

    def __hash__(self):
        return hash((self.rows, tuple(tuple(c.items()) for c in self._sparse)))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def _normalize_divisors(values):
    """Invariant factors of diag(values): pairwise gcd/lcm until a chain."""
    vals = [abs(v) for v in values if abs(v) != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a != 0:
                    g = gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
        vals = [v for v in vals if v != 1]
    return tuple(sorted(vals))


def _diagonal_entries(rows):
    """Diagonal entries of a diagonal matrix with the same invariant factors
    as the independent sparse rows, found by Hermite normal forms of the
    rows and their transpose in turn (Kannan and Bachem, SIAM J. Comput.
    8 (1979)).

    Transposing and taking a Hermite form (a unimodular row operation) both
    keep the invariant factors, so the diagonal left at the end has those of
    the rows.  The loop ends: every form is echelon, and the first entry of
    the next form is the gcd of the first row of this one, so it divides the
    first entry d here and is smaller unless d divides that whole row.  Then
    the next form, being unique, has first row (d, 0, ..., 0) as well as
    first column (d, 0, ..., 0), later forms keep both, and the entries
    after d shrink in the same way.
    """
    while any(len(row) > 1 for row in rows):
        columns = {}
        for i, row in enumerate(rows):
            for k, x in row.items():
                columns.setdefault(k, {})[i] = x
        rows = Lattice(len(rows), columns.values()).canonicalize()._rows
    return [x for row in rows for x in row.values()]


class Lattice:
    """Integer lattice in Z^n with an incrementally maintained echelon basis.

    Rows are kept in Hermite echelon form (each row has a pivot column, pivot
    columns strictly increase, pivots positive) and stored as sparse
    {column: nonzero} dicts, so a row's pivot is its least key and every step
    touches only nonzeros.  Rows are keyed by their pivot column; `pivots`
    and `_rows` list them in pivot order, built on request and cached until
    the rows change.  Vectors are given as dense sequences of length n
    or as sparse dicts; dicts are copied, never kept.  Every vector that
    comes out (`rows`, `coordinates`) is a fresh sparse dict.  Supports
    membership tests, equality by mutual containment, exact coordinates over
    the rows, and the Hermite normal form, taken bottom-up by the one sweep
    that also reads coset representatives.

    >>> lat = Lattice(3, [[2, 4, 0], {1: 3, 2: 1}])
    >>> lat.rows, lat.pivots
    ([{0: 2, 1: 4}, {1: 3, 2: 1}], [0, 1])
    >>> lat.coordinates([4, 5, -1])
    {0: 2, 1: -1}
    """

    __slots__ = ("n", "_row_at", "_order")

    def __init__(self, n, vectors=()):
        self.n = n
        self._row_at = {}       # pivot column -> row
        self._order = None      # (pivots, rows, {pivot: position}) or None
        for v in vectors:
            self.add(v)

    def _ordered(self):
        """The cached (pivots, rows, {pivot: position}) in pivot order."""
        order = self._order
        if order is None:
            row_at = self._row_at
            pivots = sorted(row_at)
            order = self._order = (pivots, [row_at[j] for j in pivots],
                                   {j: i for i, j in enumerate(pivots)})
        return order

    @property
    def pivots(self):
        """The pivot columns, increasing."""
        return self._ordered()[0]

    @property
    def _rows(self):
        """The stored rows, in pivot order."""
        return self._ordered()[1]

    @property
    def rows(self):
        """The rows, as fresh sparse dicts, in pivot order."""
        return [dict(row) for row in self._rows]

    def add(self, vec):
        """Insert a vector; returns True if the lattice grew or changed."""
        return self._insert(_sparse_vector(vec, self.n))

    def _insert(self, v):
        """`add` for a sparse v that is already normalised (indices below n,
        no zero entries).  v is taken over and may be stored or changed, so
        callers pass a fresh dict, or `dict(col)` of a stored column."""
        row_at = self._row_at
        changed = False
        while v:
            j = min(v)
            row = row_at.get(j)
            if row is None:
                if v[j] < 0:
                    v = {k: -x for k, x in v.items()}
                row_at[j] = v
                self._order = None
                return True
            a, b = row[j], v[j]
            if b % a == 0:
                _add_multiple(v, -(b // a), row)
            else:
                g, x, y = ext_gcd(a, b)
                row_at[j] = _combination(x, row, y, v)
                v = _combination(a // g, v, -(b // g), row)
                self._order = None
                changed = True
        return changed

    def _eliminate(self, v, stop=None, coeffs=None):
        """Subtract rows from the sparse v, in place, until it has no entry
        below `stop` (below n when stop is None).

        Returns v, or None when an entry has no pivot row or is not
        divisible by its pivot.  The multiple of the row with pivot j that
        was subtracted is stored in coeffs[j] when coeffs is given.
        """
        row_at = self._row_at
        while v:
            j = min(v)
            if stop is not None and j >= stop:
                break
            row = row_at.get(j)
            if row is None:
                return None
            q, r = divmod(v[j], row[j])
            if r:
                return None
            if coeffs is not None:
                coeffs[j] = q
            _add_multiple(v, -q, row)
        return v

    def contains(self, vec):
        return self._eliminate(_sparse_vector(vec, self.n)) is not None

    def coordinates(self, vec):
        """The exact sparse coordinates {i: c} with sum(c * rows[i]) == vec;
        raises NotDivisible when vec is not in the lattice."""
        coeffs = {}
        if self._eliminate(_sparse_vector(vec, self.n), coeffs=coeffs) is None:
            raise NotDivisible("vector not in the integer span of the basis")
        position = self._ordered()[2]
        return {position[j]: c for j, c in coeffs.items()}

    def _hermite(self):
        """Bring the rows to the unique Hermite normal form, bottom-up: each
        row, replaced in place, is swept by the rows below it, which are
        canonical already.  Returns the rows with pivot 1 and the others,
        each as {pivot: row}."""
        row_at = self._row_at
        substitution, residual = {}, {}
        for j in sorted(row_at, reverse=True):
            row = row_at[j] = _sweep(substitution, residual, row_at[j])
            (substitution if row[j] == 1 else residual)[j] = row
        self._order = None
        return substitution, residual

    def canonicalize(self):
        """Bring the basis to the unique Hermite normal form."""
        self._hermite()
        return self

    def equals(self, other):
        """Same pivots, and each side's rows lie in the other (no copies)."""
        if self.n != other.n or self.pivots != other.pivots:
            return False
        return all(b._eliminate(dict(row)) is not None
                   for a, b in ((self, other), (other, self))
                   for row in a._row_at.values())


class FpAbelianGroup:
    """Finitely presented abelian group: generator keys + relator columns.

    >>> G = FpAbelianGroup(("q",), IntMatrix([[4]]))
    >>> G.structure
    (0, (4,))
    """

    __slots__ = ("generators", "relations", "__dict__")

    def __init__(self, generators, relations=None):
        self.generators = tuple(generators)
        if relations is None or relations.cols == 0:
            relations = IntMatrix.zeros(len(self.generators), 0)
        elif relations.rows != len(self.generators):
            raise ShapeMismatch("relation matrix has wrong number of rows")
        self.relations = relations

    @cached_property
    def index(self):
        return {g: i for i, g in enumerate(self.generators)}

    @cached_property
    def ngens(self):
        return len(self.generators)

    @cached_property
    def structure(self):
        """(free_rank, torsion divisors d1 | d2 | ...), read off `reduced`:
        the residual rows, in pivot order, are brought to a diagonal."""
        survivors, _, residual = self.reduced
        rows = [residual[j] for j in sorted(residual)]
        return (len(survivors) - len(residual),
                _normalize_divisors(_diagonal_entries(rows)))

    @property
    def free_rank(self):
        return self.structure[0]

    @property
    def torsion(self):
        return list(self.structure[1])

    @cached_property
    def reduced(self):
        """The group's one view of its relations: the Hermite normal form of
        the lattice of its relator columns, read as a reduced presentation
        (Havas, Holt and Rees, Linear Algebra Appl. 192 (1993)), the triple of
        - survivors: the generators, increasing, whose column has no pivot
          or a pivot above 1;
        - substitution: {j: row} for each row with pivot 1, which says
          g_j = -sum row[k] g_k over k != j (those k are survivors, as the
          normal form has 0 at every other pivot-1 column);
        - residual: {pivot: row} for the other rows.
        The two dicts are the split the bottom-up Hermite pass builds; only
        their rows are kept, and nothing changes them.  With relators a - 2b
        and 3b, b and c survive and a = -b:

        >>> FpAbelianGroup("abc", IntMatrix([[1, 0], [-2, 3], [0, 0]])).reduced
        ((1, 2), {0: {0: 1, 1: 1}}, {1: {1: 3}})
        """
        lat = Lattice(self.ngens)
        for col in self.relations._sparse:
            lat._insert(dict(col))
        substitution, residual = lat._hermite()
        survivors = tuple(k for k in range(self.ngens)
                          if k not in substitution)
        return survivors, substitution, residual

    @cached_property
    def _representative(self):
        """v -> the canonical coset representative of the sparse v (not
        changed), empty exactly when v is a relation, as a fresh dict: v
        swept by the rows of `reduced`."""
        _, substitution, residual = self.reduced
        return partial(_sweep, substitution, residual)

    @property
    def is_trivial(self):
        return self.structure == (0, ())

    def element(self, coeffs):
        """Element from a dense vector, sparse dict, or {key: coeff} dict.

        Integer dict keys are generator indices in [0, ngens); coefficients
        must be integers (`operator.index`), and repeated entries add up.
        """
        n = self.ngens
        if isinstance(coeffs, dict):
            vec = {}
            for k, v in coeffs.items():
                if not isinstance(k, int):
                    k = self.index[k]
                elif not 0 <= k < n:
                    raise ShapeMismatch("generator index out of range")
                if y := vec.get(k, 0) + index(v):
                    vec[k] = y
                else:
                    vec.pop(k, None)
        else:
            if len(coeffs) != n:
                raise ShapeMismatch("coefficient vector has wrong length")
            vec = {k: x for k, v in enumerate(coeffs) if (x := index(v))}
        return GroupElement(self, vec)

    def zero(self):
        return GroupElement(self, {})

    def gen(self, key):
        return self.element({key: 1})

    def normal_form(self, vec):
        """Canonical coset representative of vec modulo the relation
        lattice, as a dense tuple."""
        n = self.ngens
        return tuple(_dense(self._representative(_sparse_vector(vec, n)), n))

    def same_presentation(self, other):
        return self is other or (self.generators == other.generators
                                 and self.relations == other.relations)

    def with_extra_relations(self, columns):
        """New group on the same generators with additional relator columns."""
        extra = IntMatrix.from_columns(columns, self.ngens)
        return FpAbelianGroup(self.generators, self.relations.hstack(extra))

    def describe(self):
        return {"free_rank": self.free_rank, "torsion": self.torsion}

    def __repr__(self):
        r, t = self.structure
        return f"FpAbelianGroup({self.ngens} gens; Z^{r} + {list(t)})"


@dataclass(frozen=True, slots=True)
class GroupElement:
    """Integer combination of the generators of a presented group.

    Stored as a sparse {generator index: nonzero int} dict that is never
    changed, so every operation touches only nonzeros; build elements with
    `FpAbelianGroup.element`, `zero` or `gen`.  `coeffs` is the dense view.
    """

    group: FpAbelianGroup
    _vec: dict

    @property
    def coeffs(self):
        """The dense coefficient tuple, built on each read."""
        return tuple(_dense(self._vec, self.group.ngens))

    @property
    def vector(self):
        """A fresh sparse {index: nonzero} dict, indices increasing."""
        v = self._vec
        return {k: v[k] for k in sorted(v)}

    def _plus(self, q, other):
        """self + q * other, for another element of the same group."""
        if not self.group.same_presentation(other.group):
            raise ShapeMismatch("elements of different groups")
        v = dict(self._vec)
        _add_multiple(v, q, other._vec)
        return GroupElement(self.group, v)

    def __add__(self, other):
        return self._plus(1, other)

    def __sub__(self, other):
        return self._plus(-1, other)

    def __neg__(self):
        return GroupElement(self.group, _combination(-1, self._vec, 0, None))

    def __rmul__(self, k):
        try:
            k = index(k)
        except TypeError:
            return NotImplemented
        return GroupElement(self.group, _combination(k, self._vec, 0, None))

    @property
    def is_zero(self):
        return not self.group._representative(self._vec)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        # elements of different presentations are unequal, not an error,
        # since they may share a hash
        if not self.group.same_presentation(other.group):
            return False
        diff = dict(self._vec)
        _add_multiple(diff, -1, other._vec)
        return not (diff and self.group._representative(diff))

    def __hash__(self):
        # equal elements have equal presentations, hence equal coset
        # representatives
        rep = self.group._representative(self._vec)
        return hash(tuple(sorted(rep.items())))

    def __repr__(self):
        gens, v = self.group.generators, self._vec
        return " + ".join(f"{v[k]}*{gens[k]!r}" for k in sorted(v)) or "0"


class AbelianHom:
    """Homomorphism between presented groups, as a matrix on generators.

    The matrix has one column per source generator, holding the image in
    target generator coordinates.  Construction verifies that every source
    relator reduces to 0 on the target's `reduced` relations.

    The kernel (with its inclusion), image and cokernel, and the flags
    `injective`, `surjective` and `isomorphism`, are built on first read.
    The flags need no structure computation: they are decided on
    `kernel_lattice`, `image_lattice` and the source's `reduced` relations.
    """

    __slots__ = ("source", "target", "matrix", "__dict__")

    def __init__(self, source, target, matrix, check=True):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ShapeMismatch("hom matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            for col in source.relations._sparse:
                if target._representative(_apply(matrix._sparse, col)):
                    raise HomValidityError(
                        "source relator does not map to zero in the target")

    @classmethod
    def from_columns(cls, source, target, columns, check=True):
        return cls(source, target,
                   IntMatrix.from_columns(columns, target.ngens), check=check)

    @classmethod
    def identity(cls, source, target=None):
        """The identity on generators, from source to `target` (the source
        itself by default).  The target must be a quotient of the source on
        the same generators; that is not checked."""
        target = source if target is None else target
        return cls(source, target, IntMatrix.identity(source.ngens),
                   check=False)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target,
                   IntMatrix.zeros(target.ngens, source.ngens), check=False)

    def __call__(self, element):
        if not element.group.same_presentation(self.source):
            raise ShapeMismatch("element not in the source group")
        return GroupElement(self.target,
                            _apply(self.matrix._sparse, element._vec))

    def apply_vector(self, vec):
        """The image of a dense or sparse vector, as a dense list."""
        return self.matrix.mul_vector(vec)

    def compose(self, other):
        """self after other (self . other)."""
        if not other.target.same_presentation(self.source):
            raise ShapeMismatch("composition shape mismatch")
        return AbelianHom(other.source, self.target,
                          self.matrix.mul(other.matrix), check=False)

    def add(self, other):
        if not (self.source.same_presentation(other.source)
                and self.target.same_presentation(other.target)):
            raise ShapeMismatch("sum of homs with different end groups")
        cols = [_combination(1, a, 1, b) for a, b in
                zip(self.matrix._sparse, other.matrix._sparse)]
        return AbelianHom.from_columns(self.source, self.target, cols,
                                       check=False)

    def scale(self, k):
        cols = [{i: k * v for i, v in col.items()}
                for col in self.matrix.sparse_columns()]
        return AbelianHom.from_columns(self.source, self.target, cols,
                                       check=False)

    def equals(self, other):
        """Same map: columns agree modulo the target relations."""
        if not (self.source.same_presentation(other.source)
                and self.target.same_presentation(other.target)):
            return False
        rep = self.target._representative
        return not any(rep(_combination(1, a, -1, b)) for a, b in
                       zip(self.matrix._sparse, other.matrix._sparse))

    @cached_property
    def _augmented(self):
        """Lattice of rows (image | source) in Z^(h+g), h = target gens.

        It is spanned by (M e_j | e_j) and (relator | 0).  Echelon priority on
        the image block makes kernels and preimages direct reads: rows with
        pivot >= h have zero image part, and solving M x == b modulo the
        target relations clears the image block of (b | 0), leaving (0 | -x).
        """
        h = self.target.ngens
        lat = Lattice(h + self.source.ngens)
        for j, col in enumerate(self.matrix._sparse):
            lat._insert(col | {h + j: 1})
        for rel in self.target.relations._sparse:
            lat._insert(dict(rel))
        return lat

    @cached_property
    def image_lattice(self):
        """Hermite normal form of M Z^src plus the target relations: the
        image blocks of the `_augmented` rows with pivot < h, canonicalised."""
        aug, h = self._augmented, self.target.ngens
        lat = Lattice(h)
        for piv, row in aug._row_at.items():
            if piv < h:
                lat._row_at[piv] = {k: x for k, x in row.items() if k < h}
        return lat.canonicalize()

    @cached_property
    def kernel_lattice(self):
        """Echelon basis of {x in Z^src : M x lies in the target lattice}:
        the `_augmented` rows with pivot >= h, shifted down by h; they are
        echelon already, so none is inserted again."""
        aug, h = self._augmented, self.target.ngens
        lat = Lattice(self.source.ngens)
        for piv, row in aug._row_at.items():
            if piv >= h:
                lat._row_at[piv - h] = {k - h: x for k, x in row.items()}
        return lat

    def kernel_coordinates(self, vec):
        """The sparse coordinates of a source vector (dense or sparse) over
        the generators of `kernel`; raises NotDivisible when vec is not in
        the kernel."""
        return self.kernel_lattice.coordinates(vec)

    @cached_property
    def kernel(self):
        """The lift {x : M x in the target relations} modulo the source
        relations, which is correct with torsion on both sides."""
        return _subgroup(self.kernel_lattice, "ker", self.source.relations)

    @cached_property
    def kernel_inclusion(self):
        return AbelianHom.from_columns(self.kernel, self.source,
                                       self.kernel_lattice._rows, check=False)

    @cached_property
    def image(self):
        return _subgroup(self.image_lattice, "im", self.target.relations)

    @cached_property
    def cokernel(self):
        return self.target.with_extra_relations(self.matrix._sparse)

    @cached_property
    def injective(self):
        """The kernel is L_ker / R_src with R_src inside L_ker (L_ker =
        `kernel_lattice`, R_src the source relations): trivial iff every row
        of L_ker reduces to 0 on the source's `reduced` relations."""
        rep = self.source._representative
        return not any(map(rep, self.kernel_lattice._row_at.values()))

    @cached_property
    def surjective(self):
        """The cokernel is Z^t / `image_lattice`: trivial iff that Hermite
        normal form has t pivots, each of them 1."""
        lat = self.image_lattice
        return (len(lat._row_at) == self.target.ngens
                and all(row[j] == 1 for j, row in lat._row_at.items()))

    @property
    def isomorphism(self):
        return self.injective and self.surjective

    def preimage_vector(self, vec):
        """Some x with M x == vec modulo the target relations, as a sparse
        {source index: nonzero} dict, or None.  vec is dense or sparse."""
        h = self.target.ngens
        rest = self._augmented._eliminate(_sparse_vector(vec, h), stop=h)
        if rest is None:
            return None
        return {k - h: -v for k, v in rest.items()}

    def lift(self, f, target=None):
        """The map phi: f.source -> target (by default this map's source)
        with self . phi == f modulo this map's target relations, or None
        when a column of f has no preimage.  phi is checked: a relator of
        f.source that the chosen preimages do not kill raises
        HomValidityError.  f must map into a group on this map's target
        generators (ShapeMismatch otherwise)."""
        if f.target.generators != self.target.generators:
            raise ShapeMismatch("lift needs f to map into this map's target "
                                "generators")
        cols = []
        for col in f.matrix._sparse:
            x = self.preimage_vector(col)
            if x is None:
                return None
            cols.append(x)
        return AbelianHom.from_columns(
            f.source, self.source if target is None else target, cols)

    def __repr__(self):
        return f"AbelianHom({self.source!r} -> {self.target!r})"


def _subgroup(lat, tag, relations):
    """The group on lat's rows, related by the given relator columns."""
    gens = tuple((tag, i) for i in range(len(lat._row_at)))
    cols = [lat.coordinates(rel) for rel in relations._sparse]
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens)))


def exact_at(f, g):
    """True iff image(f) == kernel(g) as subgroups of the middle group B:
    f's `image_lattice` equals g's `kernel_lattice` {x : M x in R_C}, which
    holds the relations of B as g is valid (for an unchecked g, the caller's
    guarantee)."""
    if not f.target.same_presentation(g.source):
        raise ShapeMismatch("maps are not composable through a middle group")
    return f.image_lattice.equals(g.kernel_lattice)


def tensor_Z2(group):
    """G (x) Z/2: same generators, relations plus 2 * each generator."""
    extra = [{i: 2} for i in range(group.ngens)]
    return group.with_extra_relations(extra)


def direct_sum(a, b):
    gens = tuple((0, g) for g in a.generators) + tuple((1, g) for g in b.generators)
    cols = a.relations.sparse_columns()
    for col in b.relations.sparse_columns():
        cols.append({i + a.ngens: v for i, v in col.items()})
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens)))


def pullback(f, g):
    """The difference map d: A + B -> C, (a, b) -> f(a) - g(b), of f: A -> C
    and g: B -> C.  Its kernel is the pullback P, whose generators are the
    rows of `d.kernel_lattice`; split at A.ngens, a row gives a generator's
    projections to A and to B."""
    if not f.target.same_presentation(g.target):
        raise ShapeMismatch("pullback needs a common target")
    cols = f.matrix.sparse_columns()
    cols += [{i: -v for i, v in col.items()}
             for col in g.matrix.sparse_columns()]
    return AbelianHom.from_columns(direct_sum(f.source, g.source), f.target,
                                   cols, check=False)

"""Exact integer linear algebra for finitely presented abelian groups.

Everything in this module (and the whole package) works over Z with
arbitrary-precision integers; no floating point is used anywhere.  A group is
presented by an ordered list of generator keys and an integer relation matrix
with one column per relator.  Structure computations go through Smith normal
form, subgroup computations (kernels, images, membership) through Hermite
echelon bases of integer lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd


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


class IntMatrix:
    """Immutable dense integer matrix.

    >>> IntMatrix([[1, 2], [3, 4]]).mul(IntMatrix.identity(2)).data
    ((1, 2), (3, 4))
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None, _trusted=False):
        if _trusted:
            rows = data
        else:
            rows = tuple(tuple(int(x) for x in row) for row in data)
        self.data = rows
        self.rows = len(rows)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ShapeMismatch("ragged rows")
            self.cols = widths.pop()
        else:
            self.cols = 0 if cols is None else cols
        if cols is not None and self.rows and self.cols != cols:
            raise ShapeMismatch("explicit column count disagrees with data")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns, nrows):
        """Build from an iterable of columns, each a dense list or sparse dict."""
        cols = list(columns)
        data = [[0] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            if isinstance(col, dict):
                for i, v in col.items():
                    data[i][j] = int(v)
            else:
                if len(col) != nrows:
                    raise ShapeMismatch("column length mismatch")
                for i, v in enumerate(col):
                    data[i][j] = int(v)
        return cls(tuple(map(tuple, data)), cols=len(cols), _trusted=True)

    def column(self, j):
        return [row[j] for row in self.data]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def sparse_columns(self):
        out = []
        for j in range(self.cols):
            out.append({i: self.data[i][j] for i in range(self.rows)
                        if self.data[i][j]})
        return out

    def mul(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch("matrix product shape mismatch")
        ocols = list(zip(*other.data)) if other.data else []
        out = []
        for row in self.data:
            out.append([sum(a * b for a, b in zip(row, col)) for col in ocols]
                       if ocols else [0] * other.cols)
        return IntMatrix(out, cols=other.cols)

    def mul_vector(self, vec):
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.data]

    def hstack(self, other):
        if self.rows != other.rows:
            raise ShapeMismatch("row count mismatch")
        return IntMatrix([ra + rb for ra, rb in zip(self.data, other.data)],
                         cols=self.cols + other.cols)

    def det(self):
        """Determinant by fraction-free elimination (small matrices only)."""
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of non-square matrix")
        n = self.rows
        a = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def snf(m):
    """Smith normal form with transforms: returns (S, U, V), S = U*M*V.

    S is diagonal with a divisibility chain d1 | d2 | ...; U and V are
    unimodular.  Row/column reduction with pivoting on the entry of minimal
    absolute value.

    >>> S, U, V = snf(IntMatrix([[2, 0], [0, 3]]))
    >>> [S.data[i][i] for i in range(2)]
    [1, 6]
    """
    R, C = m.rows, m.cols
    a = [list(row) for row in m.data]
    u = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    v = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, R):
            for j in range(t, C):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # Clear column t, restarting with a smaller pivot on any residue.
            restart = False
            for i in range(R):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(C):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if not restart:
                break
        t += 1

    # Positive diagonal, then enforce the divisibility chain.
    r = min(R, C)
    for i in range(r):
        if a[i][i] < 0:
            addmul_row(i, i, -2)
    i = 0
    while i < r - 1:
        x, y = a[i][i], a[i + 1][i + 1]
        if x and y and y % x != 0 or (x == 0 and y != 0):
            # Stack the two diagonal entries into one column and re-reduce.
            addmul_col(i, i + 1, 1)
            g, s, tt = ext_gcd(x, y)
            # [x 0; y y] -> row reduce to gcd: replace rows by Bezout combo.
            row_i = [s * p + tt * q for p, q in zip(a[i], a[i + 1])]
            urow_i = [s * p + tt * q for p, q in zip(u[i], u[i + 1])]
            row_j = [(-(y // g)) * p + (x // g) * q
                     for p, q in zip(a[i], a[i + 1])]
            urow_j = [(-(y // g)) * p + (x // g) * q
                      for p, q in zip(u[i], u[i + 1])]
            a[i], a[i + 1] = row_i, row_j
            u[i], u[i + 1] = urow_i, urow_j
            # Clear the off-diagonal residue in column i+1 / row i.
            q = a[i][i + 1] // a[i][i]
            addmul_col(i + 1, i, -q)
            q = a[i + 1][i] // a[i][i]
            addmul_row(i + 1, i, -q)
            if a[i + 1][i + 1] < 0:
                addmul_row(i + 1, i + 1, -2)
            i = max(i - 1, 0)
        else:
            i += 1

    return IntMatrix(a, cols=C), IntMatrix(u, cols=R), IntMatrix(v, cols=C)


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


def relation_divisors(ngens, columns):
    """(free_rank, invariant factors) of Z^ngens modulo the given relator columns.

    Sparse Smith reduction without transform tracking: repeatedly pick a pivot
    of minimal absolute value (preferring +-1 and thin columns), clear its row
    by column operations and its column by row operations, and retire it.
    """
    import heapq

    cols = {}
    row_index = {}
    for cid, col in enumerate(columns):
        d = {i: int(v) for i, v in (col.items() if isinstance(col, dict)
                                    else enumerate(col)) if v}
        if d:
            cols[cid] = d
            for i in d:
                row_index.setdefault(i, set()).add(cid)
    divisors = []
    pivoted_rows = 0

    def col_weight(cid):
        d = cols[cid]
        best = min(abs(v) for v in d.values())
        return (best != 1, len(d), cid)

    # lazy heap of candidate pivot columns; stale entries are re-pushed
    heap = [col_weight(cid) for cid in cols]
    heapq.heapify(heap)

    while cols:
        while True:
            if not heap:
                for c in cols:
                    heapq.heappush(heap, col_weight(c))
            flag, nnz, cid = heapq.heappop(heap)
            if cid not in cols:
                continue
            fresh = col_weight(cid)
            if fresh[:2] != (flag, nnz):
                heapq.heappush(heap, fresh)
                continue
            break
        col = cols[cid]
        r, v = min(col.items(), key=lambda kv: (abs(kv[1]), kv[0]))
        # Clear row r from every other column.
        while True:
            others = [c for c in row_index.get(r, ()) if c != cid]
            dirty = False
            for oc in others:
                ocol = cols[oc]
                q = ocol[r] // v
                if q:
                    for rr, vv in col.items():
                        nv = ocol.get(rr, 0) - q * vv
                        if nv:
                            ocol[rr] = nv
                            row_index.setdefault(rr, set()).add(oc)
                        elif rr in ocol:
                            del ocol[rr]
                            row_index[rr].discard(oc)
                if not ocol:
                    del cols[oc]
                elif r in ocol:
                    dirty = True  # residue smaller than |v| remains
            if not dirty:
                break
            # A residue beats the current pivot; adopt the smallest.
            r2, v2, c2 = None, None, None
            for oc in list(row_index.get(r, ())):
                val = cols[oc].get(r)
                if val and (v2 is None or abs(val) < abs(v2)):
                    r2, v2, c2 = r, val, oc
            if c2 != cid:
                heapq.heappush(heap, col_weight(cid))
            cid, col, r, v = c2, cols[c2], r2, v2
        # Row r now lives only in this column: clear the column by row
        # operations (which touch no other column) if divisible, otherwise
        # a smaller entry appears inside this column and becomes the pivot.
        while True:
            rest = [(rr, vv) for rr, vv in col.items() if rr != r]
            bad = [(rr, vv) for rr, vv in rest if vv % v != 0]
            if not bad:
                break
            rr, vv = bad[0]
            nv = vv - (vv // v) * v
            col[rr] = nv
            if abs(nv) < abs(v):
                r, v = rr, nv
                others = [c for c in row_index.get(r, ()) if c != cid]
                if others:
                    break  # row r reappears elsewhere; redo row clearing
        if any(c != cid for c in row_index.get(r, ())):
            heapq.heappush(heap, col_weight(cid))
            continue  # restart outer loop with same column, new pivot row
        divisors.append(abs(v))
        pivoted_rows += 1
        for rr in col:
            row_index[rr].discard(cid)
        del cols[cid]
        row_index.pop(r, None)

    free_rank = ngens - pivoted_rows
    return free_rank, _normalize_divisors(divisors)


class Lattice:
    """Integer lattice in Z^n with an incrementally maintained echelon basis.

    Rows are kept in Hermite echelon form (each row has a pivot column, pivot
    columns strictly increase, pivots positive).  Supports membership tests,
    canonical forms for equality of lattices, and exact coordinates over the
    rows.  The rows are read by callers and must not be mutated.
    """

    __slots__ = ("n", "rows", "pivots", "_pivot_at")

    def __init__(self, n, vectors=()):
        self.n = n
        self.rows = []
        self.pivots = []
        self._pivot_at = {}
        for v in vectors:
            self.add(v)

    def add(self, vec):
        """Insert a vector; returns True if the lattice grew or changed."""
        v = list(vec)
        if len(v) != self.n:
            raise ShapeMismatch("vector has wrong ambient dimension")
        changed = False
        j = 0
        while j < self.n:
            if not v[j]:
                j += 1
                continue
            i = self._pivot_at.get(j)
            if i is None:
                if v[j] < 0:
                    v = [-x for x in v]
                pos = 0
                while pos < len(self.pivots) and self.pivots[pos] < j:
                    pos += 1
                self.rows.insert(pos, v)
                self.pivots.insert(pos, j)
                self._pivot_at.clear()
                self._pivot_at.update((p, k) for k, p in enumerate(self.pivots))
                return True
            row = self.rows[i]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, row)]
            else:
                g, x, y = ext_gcd(a, b)
                new_row = [x * p + y * q for p, q in zip(row, v)]
                v = [(a // g) * q - (b // g) * p for p, q in zip(row, v)]
                self.rows[i] = new_row
                changed = True
        return changed

    def _eliminate(self, vec, stop=None, coeffs=None):
        """Subtract rows from vec until its first `stop` entries are zero.

        Returns the remainder, or None when an entry has no pivot row or is
        not divisible by its pivot.  The multiple of row i that was
        subtracted is stored in coeffs[i] when coeffs is given.
        """
        v = list(vec)
        for j in range(self.n if stop is None else stop):
            if not v[j]:
                continue
            i = self._pivot_at.get(j)
            if i is None:
                return None
            row = self.rows[i]
            if v[j] % row[j] != 0:
                return None
            q = v[j] // row[j]
            if coeffs is not None:
                coeffs[i] = q
            v = [x - q * y for x, y in zip(v, row)]
        return v

    def contains(self, vec):
        return self._eliminate(vec) is not None

    def coordinates(self, vec):
        """Exact coefficients c with sum(c[i] * rows[i]) == vec."""
        coeffs = [0] * len(self.rows)
        if self._eliminate(vec, coeffs=coeffs) is None:
            raise NotDivisible("vector not in the integer span of the basis")
        return coeffs

    def reduce(self, vec):
        """Reduce vec by the basis as far as divisibility allows."""
        v = list(vec)
        for j in range(self.n):
            if not v[j]:
                continue
            i = self._pivot_at.get(j)
            if i is None:
                continue
            row = self.rows[i]
            q = v[j] // row[j]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return v

    def canonicalize(self):
        """Bring the basis to the unique Hermite normal form."""
        for k, j in enumerate(self.pivots):
            p = self.rows[k][j]
            for i in range(len(self.rows)):
                if i == k:
                    continue
                q = self.rows[i][j] // p
                if q:
                    self.rows[i] = [x - q * y
                                    for x, y in zip(self.rows[i], self.rows[k])]
        return self

    def equals(self, other):
        if self.n != other.n or self.pivots != other.pivots:
            return False
        a = Lattice(self.n, self.rows).canonicalize()
        b = Lattice(other.n, other.rows).canonicalize()
        return a.rows == b.rows

    def __contains__(self, vec):
        return self.contains(vec)


class FpAbelianGroup:
    """Finitely presented abelian group: generator keys + relator columns.

    >>> G = FpAbelianGroup(("q",), IntMatrix([[4]]))
    >>> G.structure
    (0, (4,))
    """

    __slots__ = ("generators", "relations", "__dict__")

    def __init__(self, generators, relations=None):
        self.generators = tuple(generators)
        if relations is None:
            relations = IntMatrix.zeros(len(self.generators), 0)
        if relations.rows != len(self.generators) and relations.cols != 0:
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
        """(free_rank, torsion divisors d1 | d2 | ...)."""
        return relation_divisors(self.ngens, self.relations.sparse_columns())

    @property
    def free_rank(self):
        return self.structure[0]

    @property
    def torsion(self):
        return list(self.structure[1])

    @cached_property
    def relation_lattice(self):
        return Lattice(self.ngens, self.relations.columns()).canonicalize()

    @property
    def is_trivial(self):
        return self.structure == (0, ())

    def element(self, coeffs):
        """Element from a dense vector, sparse dict, or {key: coeff} dict."""
        vec = [0] * self.ngens
        if isinstance(coeffs, dict):
            for k, v in coeffs.items():
                i = k if isinstance(k, int) else self.index[k]
                vec[i] += int(v)
        else:
            if len(coeffs) != self.ngens:
                raise ShapeMismatch("coefficient vector has wrong length")
            vec = [int(v) for v in coeffs]
        return GroupElement(self, tuple(vec))

    def zero(self):
        return GroupElement(self, (0,) * self.ngens)

    def gen(self, key):
        return self.element({key: 1})

    def normal_form(self, vec):
        """Canonical coset representative of vec modulo the relation lattice."""
        return tuple(self.relation_lattice.reduce(vec))

    def same_presentation(self, other):
        return (self.generators == other.generators
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


@dataclass(frozen=True)
class GroupElement:
    """Integer combination of the generators of a presented group."""

    group: FpAbelianGroup
    coeffs: tuple

    def __add__(self, other):
        self._check(other)
        return GroupElement(self.group, tuple(a + b for a, b in
                                              zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return GroupElement(self.group, tuple(a - b for a, b in
                                              zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return GroupElement(self.group, tuple(-a for a in self.coeffs))

    def __rmul__(self, k):
        return GroupElement(self.group, tuple(int(k) * a for a in self.coeffs))

    def _check(self, other):
        if not self.group.same_presentation(other.group):
            raise ShapeMismatch("elements of different groups")

    @property
    def is_zero(self):
        return self.group.relation_lattice.contains(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        return hash((id(self.group), self.group.normal_form(self.coeffs)))

    def __repr__(self):
        terms = [f"{v}*{g!r}" for g, v in zip(self.group.generators, self.coeffs)
                 if v]
        return " + ".join(terms) if terms else "0"


class AbelianHom:
    """Homomorphism between presented groups, as a matrix on generators.

    The matrix has one column per source generator, holding the image in
    target generator coordinates.  Construction verifies that every source
    relator maps into the target relation lattice.
    """

    __slots__ = ("source", "target", "matrix", "__dict__")

    def __init__(self, source, target, matrix, check=True):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ShapeMismatch("hom matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            lat = target.relation_lattice
            for col in source.relations.sparse_columns():
                img = [0] * target.ngens
                for j, v in col.items():
                    mc = matrix.column(j)
                    for i in range(target.ngens):
                        img[i] += v * mc[i]
                if not lat.contains(img):
                    raise HomValidityError(
                        "source relator does not map to zero in the target")

    @classmethod
    def from_columns(cls, source, target, columns, check=True):
        return cls(source, target,
                   IntMatrix.from_columns(columns, target.ngens), check=check)

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntMatrix.identity(group.ngens), check=False)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target,
                   IntMatrix.zeros(target.ngens, source.ngens), check=False)

    def __call__(self, element):
        if not element.group.same_presentation(self.source):
            raise ShapeMismatch("element not in the source group")
        return self.target.element(self.matrix.mul_vector(list(element.coeffs)))

    def apply_vector(self, vec):
        return self.matrix.mul_vector(list(vec))

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
        m = [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.matrix.data, other.matrix.data)]
        return AbelianHom(self.source, self.target,
                          IntMatrix(m, cols=self.matrix.cols), check=False)

    def scale(self, k):
        m = [[k * a for a in row] for row in self.matrix.data]
        return AbelianHom(self.source, self.target,
                          IntMatrix(m, cols=self.matrix.cols), check=False)

    def equals(self, other):
        """Same map: columns agree modulo the target relations."""
        if not (self.source.same_presentation(other.source)
                and self.target.same_presentation(other.target)):
            return False
        lat = self.target.relation_lattice
        for j in range(self.matrix.cols):
            diff = [a - b for a, b in zip(self.matrix.column(j),
                                          other.matrix.column(j))]
            if not lat.contains(diff):
                return False
        return True

    @cached_property
    def _augmented(self):
        """Lattice of rows (image | source) in Z^(h+g), h = target gens.

        It is spanned by (M e_j | e_j) and (relator | 0).  Echelon priority on
        the image block makes kernels and preimages direct reads: rows with
        pivot >= h have zero image part, and solving M x == b modulo the
        target relations clears the image block of (b | 0), leaving (0 | -x).
        """
        g = self.source.ngens
        lat = Lattice(self.target.ngens + g)
        for j in range(g):
            src = [0] * g
            src[j] = 1
            lat.add(self.matrix.column(j) + src)
        for rel in self.target.relations.columns():
            lat.add(rel + [0] * g)
        return lat

    @cached_property
    def image_lattice(self):
        lat = Lattice(self.target.ngens, self.matrix.columns())
        for rel in self.target.relations.columns():
            lat.add(rel)
        return lat.canonicalize()

    @cached_property
    def kernel_lattice(self):
        """Echelon basis of {x in Z^src : M x lies in the target lattice}."""
        aug, h = self._augmented, self.target.ngens
        return Lattice(self.source.ngens,
                       (row[h:] for piv, row in zip(aug.pivots, aug.rows)
                        if piv >= h))

    def preimage_vector(self, vec):
        """Some x with M x == vec modulo the target relations, or None."""
        h = self.target.ngens
        rest = self._augmented._eliminate(
            list(vec) + [0] * self.source.ngens, stop=h)
        return None if rest is None else [-x for x in rest[h:]]

    def __repr__(self):
        return f"AbelianHom({self.source!r} -> {self.target!r})"


@dataclass(frozen=True)
class HomAnalysis:
    kernel: FpAbelianGroup
    kernel_inclusion: AbelianHom
    image: FpAbelianGroup
    cokernel: FpAbelianGroup
    injective: bool
    surjective: bool
    isomorphism: bool


def hom_analysis(h):
    """Kernel (with inclusion), image, cokernel and the derived flags.

    The kernel is computed through a presentation lift: the lattice
    {x : h(x) in relation lattice of the target} modulo the source relations,
    which is correct in the presence of torsion on both sides.
    """
    kernel = _subgroup(h.kernel_lattice, "ker", h.source.relations)
    inclusion = AbelianHom.from_columns(kernel, h.source, h.kernel_lattice.rows,
                                        check=False)
    image = _subgroup(h.image_lattice, "im", h.target.relations)

    cokernel = h.target.with_extra_relations(
        h.matrix.sparse_columns() or [])

    injective = kernel.is_trivial
    surjective = cokernel.is_trivial
    return HomAnalysis(kernel, inclusion, image, cokernel,
                       injective, surjective, injective and surjective)


def _subgroup(lat, tag, relations):
    """The group on lat's rows, related by the given relator columns."""
    gens = tuple((tag, i) for i in range(len(lat.rows)))
    cols = [lat.coordinates(rel) for rel in relations.columns()]
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens))
                          if cols else IntMatrix.zeros(len(gens), 0))


def exact_at(f, g):
    """True iff image(f) == kernel(g) as subgroups of the middle group."""
    if not f.target.same_presentation(g.source):
        raise ShapeMismatch("maps are not composable through a middle group")
    ker = Lattice(g.source.ngens, g.kernel_lattice.rows)
    for rel in g.source.relations.columns():
        ker.add(rel)
    return f.image_lattice.equals(ker)


def tensor_Z2(group):
    """G (x) Z/2: same generators, relations plus 2 * each generator."""
    extra = [{i: 2} for i in range(group.ngens)]
    return group.with_extra_relations(extra)


def direct_sum(a, b):
    gens = tuple((0, g) for g in a.generators) + tuple((1, g) for g in b.generators)
    cols = []
    for col in a.relations.sparse_columns():
        cols.append(dict(col))
    for col in b.relations.sparse_columns():
        cols.append({i + a.ngens: v for i, v in col.items()})
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens))
                          if cols else IntMatrix.zeros(len(gens), 0))


def pullback(f, g):
    """Pullback of f: A -> C and g: B -> C.

    Returns (P, to_A, to_B) where P is the kernel of the difference map
    A + B -> C and the projections make the square commute.
    """
    if not f.target.same_presentation(g.target):
        raise ShapeMismatch("pullback needs a common target")
    ab = direct_sum(f.source, g.source)
    cols = [f.matrix.column(j) for j in range(f.source.ngens)]
    cols += [[-x for x in g.matrix.column(j)] for j in range(g.source.ngens)]
    diff = AbelianHom.from_columns(ab, f.target, cols, check=False)
    analysis = hom_analysis(diff)
    P, incl = analysis.kernel, analysis.kernel_inclusion
    na = f.source.ngens
    proj_a = AbelianHom.from_columns(
        ab, f.source,
        [[1 if i == j else 0 for i in range(na)] for j in range(na)]
        + [[0] * na for _ in range(g.source.ngens)], check=False)
    nb = g.source.ngens
    proj_b = AbelianHom.from_columns(
        ab, g.source,
        [[0] * nb for _ in range(na)]
        + [[1 if i == j else 0 for i in range(nb)] for j in range(nb)],
        check=False)
    return P, proj_a.compose(incl), proj_b.compose(incl)


def solve_division(group, element, k):
    """Unique x with k*x == element in a torsion-free group.

    Raises TorsionPresent if the group has torsion (uniqueness would fail)
    and NotDivisible if there is no solution.
    """
    if k <= 0:
        raise ValueError("divisor must be positive")
    if group.structure[1]:
        raise TorsionPresent("division is only well-defined without torsion")
    if not element.group.same_presentation(group):
        raise ShapeMismatch("element not in the given group")
    x = AbelianHom.identity(group).scale(k).preimage_vector(element.coeffs)
    if x is None:
        raise NotDivisible(f"element is not divisible by {k}")
    return group.element(x)

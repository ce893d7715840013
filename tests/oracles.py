"""Dense reference implementations that the tests check the engine against.

The engine (`quasilie.abelian`) works on sparse vectors with one elimination
engine, a sparse-row Hermite echelon `Lattice`, and reads group structure off
the Hermite normal form of the relation lattice.  These are the plain
dense-row algorithms it replaced: Smith normal form with transforms, a
fraction-free determinant, and a dense-row Hermite echelon lattice that does
the same arithmetic in the same order as `Lattice`, so the two must agree row
for row.  `rank_mod_p` is Gaussian elimination over F_p, which shares no code
with the engine: ngens - rank_p(relators) is the dimension of G/pG, the free
rank plus the number of invariant factors that p divides.

`relation_lattice` is the Hermite normal form of a group's relator
columns, canonicalised here apart from the group, which keeps only the rows
of `FpAbelianGroup.reduced`: its `contains` is the reference for every
membership test the engine reads off `reduced`.  `dense_relation_lattice`
is the same normal form taken on dense rows by `DenseLattice`, whose
`reduce` floor-reduces a vector column by column: the reference for the
canonical coset representative, which the engine reads off `reduced` in one
sweep.  `lattice_hash` is the hash of an element as it was first computed,
from that reduction of its vector.

`exact_by_stacking` is exactness as it was first decided: the kernel
lattice restacked with the middle group's relators, where the engine reads
the lattices the two maps already hold.

For `quasilie.quadratic` they hold the letter-by-letter cocycle of a relator,
which the engine sums in closed form, and the quadratic-group identities as
equalities of homomorphisms, which the engine checks element by element on
generators.  They also hold the presented model of the universal
(non-commutative) refinement of a form with symmetric values, built from
those letter-by-letter words, and the brute-force enumeration and torsion
counts of the extension model that it is checked against.

For `quasilie.trees` they hold the unrooted canonical form taken by
canonicalising every raw re-rooting, and the IHX and Jacobi relator terms as
raw trees: the engine memoises forms on canonical content and builds every
term from canonical halves.  The IHX terms come twice: once for every
arrangement (A, B, C | D) of every 4-valent vertex, the relators as first
written, and once per vertex, from the branch 4-tuples that are sorted, as
the engine enumerates them.  `relator_columns` turns every relator triple
into its presented column, where the engine builds each distinct Jacobi
column once and turns its one IHX triple per vertex into a column in one
pass.
"""

from bisect import bisect_left
from itertools import product
from math import gcd

from quasilie.abelian import (AbelianHom, FpAbelianGroup, IntMatrix,
                              Lattice, NotDivisible, ShapeMismatch, ext_gcd)
from quasilie.trees import (CanonSign, UnrootedTree, canonical_rooted, glue,
                            node, rooted_trees, rootings)


def det(m):
    """Determinant by fraction-free elimination (small matrices only)."""
    if m.rows != m.cols:
        raise ShapeMismatch("determinant of non-square matrix")
    n = m.rows
    a = [list(r) for r in m.data]
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


class DenseLattice:
    """Integer lattice in Z^n with a Hermite echelon basis of dense rows.

    Each step scans all n entries of a vector; `Lattice` visits only the
    nonzeros, in the same order.
    """

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
                pivots = self.pivots
                pos = bisect_left(pivots, j)
                self.rows.insert(pos, v)
                pivots.insert(pos, j)
                for k in range(pos, len(pivots)):
                    self._pivot_at[pivots[k]] = k
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

    def _eliminate(self, vec, coeffs=None):
        """Subtract rows from vec until it is zero; None when that fails."""
        v = list(vec)
        for j in range(self.n):
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
        a = DenseLattice(self.n, self.rows).canonicalize()
        b = DenseLattice(other.n, other.rows).canonicalize()
        return a.rows == b.rows


def relation_lattice(G):
    """A fresh Hermite normal form of the lattice of G's relator columns."""
    return Lattice(G.ngens, G.relations.sparse_columns()).canonicalize()


def dense_relation_lattice(G):
    """The Hermite normal form of G's relator columns, on dense rows."""
    n = G.ngens
    return DenseLattice(n, [[col.get(k, 0) for k in range(n)] for col in
                            G.relations.sparse_columns()]).canonicalize()


def lattice_hash(e, lat=None):
    """hash(e) from the `DenseLattice.reduce` of its vector on lat, by
    default `dense_relation_lattice(e.group)`."""
    if lat is None:
        lat = dense_relation_lattice(e.group)
    return hash(tuple((k, x) for k, x in enumerate(lat.reduce(e.coeffs))
                      if x))


def exact_by_stacking(f, g):
    """exact_at the way it was first written: a fresh lattice of the rows of
    g's kernel lattice stacked with the relators of the middle group B,
    against f's columns stacked with the same relators, compared by dense
    Hermite normal forms."""
    n = g.source.ngens

    def dense(vec):
        return [vec.get(k, 0) for k in range(n)]

    relators = [dense(col) for col in g.source.relations.sparse_columns()]
    ker = DenseLattice(n, [dense(row) for row in g.kernel_lattice.rows]
                       + relators)
    image = DenseLattice(n, [dense(col) for col in f.matrix.sparse_columns()]
                         + relators)
    return image.equals(ker)


def signed_occurrences(col, ngens):
    """Relator column -> ordered list of (generator index, sign), one item
    per letter."""
    seq = []
    for k in range(ngens):
        c = col.get(k, 0)
        s = 1 if c > 0 else -1
        for _ in range(abs(c)):
            seq.append((k, s))
    return seq


def cocycle_word(form, seq):
    """sum_{i<j} lambda(a'_i, a'_j) over a signed occurrence sequence."""
    acc = form.M.zero()
    prefix = form.A.zero()
    for k, s in seq:
        a = form.A.gen(form.A.generators[k])
        term = a if s > 0 else -a
        acc = acc + form.lam(prefix, term)
        prefix = prefix + term
    return acc


def relator_words(form, commutative):
    """The relator column of each nonzero relation of A in the presented
    refinement, walking the relation one letter at a time.

    A letter adds mu(a_k) to the column (commutative model), or +-mu(a_k)
    plus lambda(a_k, a_k) for a negative letter (non-commutative model),
    and its pairing with the letters before it to the cocycle.
    """
    nm = form.M.ngens
    out = []
    for rel in form.A.relations.sparse_columns():
        seq = signed_occurrences(rel, form.A.ngens)
        col = {}
        w = cocycle_word(form, seq)
        for k, s in seq:
            col[nm + k] = col.get(nm + k, 0) + (1 if commutative else s)
            if s < 0 and not commutative:
                a = form.A.gen(form.A.generators[k])
                w = w + form.lam(a, a)
        for i, v in enumerate(w.coeffs):
            if v:
                col[i] = col.get(i, 0) + v
        if col:
            out.append({i: col[i] for i in sorted(col)})
    return out


def presented_noncommutative(form):
    """Presented model of the universal refinement, for symmetric-value forms.

    Only defined where the extension group is abelian (symmetric lambda).
    """
    if not form.symmetric_values:
        raise ValueError("presented model requires symmetric lambda "
                         "(abelian extension)")
    A, M = form.A, form.M
    gens = tuple(("m", g) for g in M.generators) \
        + tuple(("q", g) for g in A.generators)
    cols = M.relations.sparse_columns() + relator_words(form,
                                                        commutative=False)
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens)))


def enumerate_extension(Q, limit=20000):
    """All elements of a finite extension-model group by BFS closure."""
    gens = Q.e_generators()
    gens += [Q.neg(g) for g in gens]
    # a pair hashes and compares by the classes of its parts, so the dict
    # keeps the first element found of each class
    seen = {Q.zero(): None}
    frontier = [Q.zero()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = Q.add(x, g)
                if y not in seen:
                    if len(seen) >= limit:
                        raise ValueError("extension group too large to "
                                         "enumerate")
                    seen[y] = None
                    nxt.append(y)
        frontier = nxt
    return list(seen)


def torsion_counts(elements, Q, divisors):
    """Count solutions of d*x = 0 in an enumerated extension group."""
    out = {}
    for d in divisors:
        out[d] = sum(1 for x in elements if Q.scalar(d, x) == Q.zero())
    return out


def presented_torsion_count(structure, d):
    """Number of d-torsion elements of Z^r + sum Z_{di} (finite case r=0)."""
    r, tors = structure
    if r:
        raise ValueError("infinite group")
    n = 1
    for t in tors:
        n *= gcd(d, t)
    return n


def axioms_by_homs(Q):
    """The identities of a presented quadratic group M_e -h-> M_ee -p-> M_e,
    as equalities of maps: * = hp - id on M_ee and dagger = ph - id on M_e
    are built as homomorphisms and composed."""
    ident_e, ident_ee = AbelianHom.identity(Q.e), AbelianHom.identity(Q.ee)
    star = Q.h.compose(Q.p).add(ident_ee.scale(-1))
    dag = Q.p.compose(Q.h).add(ident_e.scale(-1))
    return {
        "hph=2h": Q.h.compose(Q.p).compose(Q.h).equals(Q.h.scale(2)),
        "star_involution": star.compose(star).equals(ident_ee),
        "dagger_involution": dag.compose(dag).equals(ident_e),
        "star.h=h": star.compose(Q.h).equals(Q.h),
        "php=p+p.star": Q.p.compose(Q.h).compose(Q.p).equals(
            Q.p.add(Q.p.compose(star))),
        "p.star=dagger.p": Q.p.compose(star).equals(dag.compose(Q.p)),
    }


def canonical_unrooted_by_rootings(label, tree):
    """Canonical form of <label, tree> over every raw re-rooting.

    Minimizes (label, canonical rooted key) over rootings(); self-negating
    if any rooted part is, or if some encoding occurs with both signs.
    """
    seen = {}
    selfneg = False
    best = None
    for lab, t in rootings(label, tree):
        c = canonical_rooted(t)
        enc = (lab, c.tree)
        selfneg = selfneg or c.self_negating
        prev = seen.get(enc)
        if prev is None:
            seen[enc] = c.sign
        elif prev != c.sign:
            selfneg = True
        cand = (lab, c.tree.sort_key)
        if best is None or cand < best[0]:
            best = (cand, UnrootedTree(lab, c.tree), c.sign)
    sign = 1 if selfneg else best[2]
    return CanonSign(best[1], sign, selfneg)


def onequad_unrooted_expansions(order, labels):
    """The IHX relators among unrooted trees of the given order as raw glued
    terms, at every arrangement (A, B, C | D) of every 4-valent vertex:
    triples of ((label, raw tree), sign) for ((A,B),C)|D, ((A,C),B)|D and
    (A,(B,C))|D."""
    total = order - 2
    if total < 0:
        return
    for o1 in range(total + 1):
        for o2 in range(total + 1 - o1):
            for o3 in range(total + 1 - o1 - o2):
                o4 = total - o1 - o2 - o3
                for a in rooted_trees(o1, labels):
                    for b in rooted_trees(o2, labels):
                        if o2 == o1 and b.sort_key < a.sort_key:
                            continue
                        for c in rooted_trees(o3, labels):
                            if o3 == o2 and c.sort_key < b.sort_key:
                                continue
                            for d in rooted_trees(o4, labels):
                                yield ((glue(node(node(a, b), c), d), 1),
                                       (glue(node(node(a, c), b), d), -1),
                                       (glue(node(a, node(b, c)), d), -1))


def ihx_vertex_raw(order, labels):
    """The IHX relators among unrooted trees of the given order as raw glued
    terms, one per 4-valent vertex, in the engine's order: the triples of
    onequad_unrooted_expansions over the branch 4-tuples (A, B, C, D) that
    are sorted under (order, sort_key), taken from the product of every
    4-tuple of rooted trees of nondecreasing orders."""
    total = order - 2
    if total < 0:
        return
    for orders in product(range(total + 1), repeat=4):
        if sum(orders) != total or list(orders) != sorted(orders):
            continue
        for a, b, c, d in product(*(rooted_trees(o, labels)
                                    for o in orders)):
            keys = [(t.order, t.sort_key) for t in (a, b, c, d)]
            if keys == sorted(keys):
                yield ((glue(node(node(a, b), c), d), 1),
                       (glue(node(node(a, c), b), d), -1),
                       (glue(node(a, node(b, c)), d), -1))


def onequad_rooted_raw(binaries, labels):
    """The Jacobi relators inside rooted trees as raw trees, in the engine's
    order: triples ((A,B),C), ((A,C),B), (A,(B,C)), each embedded as the
    left child of further nodes (., R) up to `binaries` ordinary nodes."""
    out = []
    for o1 in range(binaries + 1):
        for o2 in range(binaries + 1 - o1):
            o3 = binaries - o1 - o2
            for a in rooted_trees(o1, labels):
                for b in rooted_trees(o2, labels):
                    if o2 == o1 and b.sort_key < a.sort_key:
                        continue
                    for c in rooted_trees(o3, labels):
                        if o3 == o2 and c.sort_key < b.sort_key:
                            continue
                        out.append((node(node(a, b), c), node(node(a, c), b),
                                    node(a, node(b, c))))
    for inner_b in range(binaries):
        for trip in onequad_rooted_raw(inner_b, labels):
            for r in rooted_trees(binaries - 1 - inner_b, labels):
                out.append(tuple(node(t, r) for t in trip))
    return out


def relator_columns(index, triples):
    """The relator columns T1 - T2 - T3 of every triple of canonical terms
    (CanonSign) over a generator index, as a presentation keeps them: zero
    columns dropped, each signed so that its entry at the least index is
    positive, and each once, in the order of first appearance."""
    out, seen = [], set()
    for trip in triples:
        col = {}
        for t, s in zip(trip, (1, -1, -1)):
            j = index[t.tree]
            col[j] = col.get(j, 0) + s * t.sign
        items = [(j, v) for j, v in sorted(col.items()) if v]
        if not items:
            continue
        if items[0][1] < 0:
            items = [(j, -v) for j, v in items]
        if tuple(items) not in seen:
            seen.add(tuple(items))
            out.append(dict(items))
    return out


def rank_mod_p(columns, p):
    """Rank over F_p of integer columns ({row: value} dicts or dense lists),
    by Gaussian elimination with one stored column per pivot row."""
    rows = {}   # pivot row -> stored column mod p, with pivot entry 1
    for col in columns:
        items = col.items() if isinstance(col, dict) else enumerate(col)
        v = {i: x % p for i, x in items if x % p}
        while v:
            i = min(v)
            row = rows.get(i)
            if row is None:
                inv = pow(v[i], -1, p)
                rows[i] = {k: x * inv % p for k, x in v.items()}
                break
            q = v[i]
            for k, x in row.items():
                y = (v.get(k, 0) - q * x) % p
                if y:
                    v[k] = y
                else:
                    v.pop(k, None)
    return len(rows)

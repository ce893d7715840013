"""Label-multidegree blocks of L_n, L'_n and T_n, and the structures that
`quasilie group` and `table` add up from one block per S_m orbit.

The oracles: the blocks partition the whole group's generators and relator
columns; a block's structure is its orbit representative's, and relabelling
is an isomorphism of the two presentations; the sum over orbits is the
whole group's structure; and the free rank of each block is the
fine-graded Witt formula (L) or its difference (T), computed here apart from
the engine.
"""

from itertools import permutations, product
from math import factorial, gcd

import pytest

from quasilie import cli, lie, treegroups
from quasilie.abelian import AbelianHom
from quasilie.lie import LIE, QUASI, lie_block, lie_blocks, lie_group
from quasilie.treegroups import t_block, t_blocks, t_group
from quasilie.trees import (canonical_rooted, canonical_unrooted,
                            distinct_columns, ihx_relators, jacobi_columns,
                            leaf, node, rooted_trees, unrooted_trees)


def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def witt_fine(degree):
    """Rank of the block of multidegree `degree` of the free Lie ring:
    (1/n) sum over d | gcd of mu(d) (n/d)! / prod (l_i/d)!  (Witt, 1937)."""
    if min(degree) < 0:
        return 0
    n = sum(degree)
    g = 0
    for x in degree:
        g = gcd(g, x)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            count = factorial(n // d)
            for x in degree:
                count //= factorial(x // d)
            total += mobius(d) * count
    return total // n


def compositions(total, parts):
    """Every multidegree of `parts` entries adding up to total."""
    return [d for d in product(range(total + 1), repeat=parts)
            if sum(d) == total]


def representative(degree):
    return tuple(sorted(degree, reverse=True))


def lower(degree, i):
    return degree[:i] + (degree[i] - 1,) + degree[i + 1:]


def multidegree(tree, m):
    counts = [0] * m
    stack = [tree]
    while stack:
        t = stack.pop()
        if t.is_leaf:
            counts[t.label - 1] += 1
        else:
            stack += (t.left, t.right)
    return tuple(counts)


def relabel(t, perm):
    if t.is_leaf:
        return leaf(perm[t.label])
    return node(relabel(t.left, perm), relabel(t.right, perm))


# (group name, whole group, block, BlockSum, leaves) for order n, m labels
GROUPS = {
    "L": (lambda n, m: lie_group(n, m, LIE),
          lambda n, m, d: lie_block(n, m, LIE, d),
          lambda n, m: lie_blocks(n, m, LIE), lambda n: n, 1),
    "Lq": (lambda n, m: lie_group(n, m, QUASI),
           lambda n, m, d: lie_block(n, m, QUASI, d),
           lambda n, m: lie_blocks(n, m, QUASI), lambda n: n, 1),
    "T": (t_group, t_block, t_blocks, lambda n: n + 2, 0),
}


def sizes(top2, top3):
    """(name, order, labels) for L, Lq and T up to order top2 with 1 and 2
    labels and top3 with 3."""
    for name, (*_, first) in GROUPS.items():
        for m, top in ((1, top2), (2, top2), (3, top3)):
            for n in range(first, top + 1):
                yield name, n, m


class TestBlockSum:
    @pytest.mark.parametrize("name,n,m", list(sizes(8, 6)))
    def test_blocks_add_up_to_the_whole(self, name, n, m):
        whole, _, blocks, _, _ = GROUPS[name]
        assert blocks(n, m).structure == whole(n, m).structure

    @pytest.mark.parametrize("name,n,m", list(sizes(6, 4)))
    def test_blocks_partition_the_presentation(self, name, n, m):
        whole, block, _, leaves, _ = GROUPS[name]
        g = whole(n, m)
        gens, cols = [], set()
        for d in compositions(leaves(n), m):
            b = block(n, m, d)
            gens += b.generators
            cols |= {frozenset((b.generators[j], v) for j, v in c.items())
                     for c in b.relations.sparse_columns()}
        assert sorted(gens, key=lambda t: t.sort_key) == list(g.generators)
        assert cols == {frozenset((g.generators[j], v) for j, v in c.items())
                        for c in g.relations.sparse_columns()}

    def test_generators_are_the_whole_groups(self):
        assert lie_blocks(5, 2).generators == lie_group(5, 2).generators
        assert t_blocks(4, 3).generators == t_group(4, 3).generators

    def test_reads_like_a_group(self):
        b = t_blocks(1, 2)
        assert (b.free_rank, b.torsion) == (0, [2] * 4)
        assert b.structure == t_group(1, 2).structure
        assert lie_blocks(2, 2, QUASI).torsion == [2, 2]

    def test_orbit_sizes(self):
        assert [lie.orbit_size(d) for d in
                [(3, 0, 0), (2, 1, 0), (1, 1, 1), (2, 2), (4,)]] == \
            [3, 6, 1, 1, 1]
        # the orbits of the representatives cover every multidegree once
        for total, parts in ((6, 2), (5, 3), (4, 4)):
            reps = list(lie._partitions(total, parts))
            assert reps == sorted({representative(d) for d in
                                   compositions(total, parts)}, reverse=True)
            assert sum(map(lie.orbit_size, reps)) == \
                len(compositions(total, parts))


class TestWittOracle:
    @pytest.mark.parametrize("n,m", [(n, m) for m, top in ((1, 8), (2, 8),
                                                           (3, 6))
                                     for n in range(1, top + 1)])
    def test_lie_blocks(self, n, m):
        ranks = 0
        for d in lie._partitions(n, m):
            assert lie_block(n, m, LIE, d).free_rank == witt_fine(d), d
            assert lie_block(n, m, QUASI, d).free_rank == witt_fine(d), d
            ranks += lie.orbit_size(d) * witt_fine(d)
        assert ranks == lie.witt_rank(n, m)

    @pytest.mark.parametrize("n,m", [(n, m) for m, top in ((1, 8), (2, 8),
                                                           (3, 6))
                                     for n in range(0, top + 1)])
    def test_tree_blocks(self, n, m):
        for d in lie._partitions(n + 2, m):
            want = sum(witt_fine(lower(d, i)) for i in range(m)) \
                - witt_fine(d)
            assert t_block(n, m, d).free_rank == want, d


class TestOrbits:
    @pytest.mark.parametrize("name,n,m", list(sizes(6, 4)))
    def test_block_is_its_representatives(self, name, n, m):
        _, block, _, leaves, _ = GROUPS[name]
        for d in compositions(leaves(n), m):
            assert block(n, m, d).structure == \
                block(n, m, representative(d)).structure, d

    @pytest.mark.parametrize("name,n,m", [("L", 6, 2), ("Lq", 6, 2),
                                          ("T", 5, 2), ("L", 5, 3),
                                          ("Lq", 5, 3), ("T", 3, 3)])
    def test_relabelling_is_an_isomorphism(self, name, n, m):
        # each relator goes into the target's relation lattice (checked by
        # from_columns), and the map is onto with no kernel
        _, block, _, leaves, _ = GROUPS[name]
        for d in compositions(leaves(n), m):
            for image in permutations(range(1, m + 1)):
                perm = dict(zip(range(1, m + 1), image))
                src = block(n, m, d)
                dst = block(n, m, tuple(d[image.index(i)]
                                        for i in range(1, m + 1)))
                cols = []
                for t in src.generators:
                    if name == "T":
                        c = canonical_unrooted(perm[t.label],
                                               relabel(t.tree, perm))
                    else:
                        c = canonical_rooted(relabel(t, perm))
                    cols.append({dst.index[c.tree]: c.sign})
                h = AbelianHom.from_columns(src, dst, cols)
                assert h.isomorphism, (d, perm)


class TestDegreeFilters:
    def test_tables_hold_their_degree(self):
        for m, top in ((2, 6), (3, 4)):
            for o in range(top + 1):
                full = rooted_trees(o, m)
                parts = [rooted_trees(o, m, d)
                         for d in compositions(o + 1, m)]
                for d, part in zip(compositions(o + 1, m), parts):
                    assert all(multidegree(t, m) == d for t in part)
                assert sorted(t for p in parts for t in p) == list(full)

    def test_relators_hold_their_degree(self):
        for m, top in ((2, 6), (3, 5)):
            for b in range(top - 2):
                full = jacobi_columns(b, m)
                parts = [jacobi_columns(b, m, d)
                         for d in compositions(b + 3, m)]
                assert sorted(c for p in parts for c in p) == sorted(full)
            for o in range(top + 1):
                full = distinct_columns(ihx_relators(o, m))
                parts = [distinct_columns(ihx_relators(o, m, d))
                         for d in compositions(o + 2, m)]
                assert sorted(c for p in parts for c in p) == sorted(full)

    def test_unrooted_tables(self):
        for m, top in ((2, 6), (3, 4)):
            for o in range(top + 1):
                parts = [unrooted_trees(o, m, d)
                         for d in compositions(o + 2, m)]
                assert sorted((t for p in parts for t in p),
                              key=lambda u: u.sort_key) == \
                    list(unrooted_trees(o, m))


class TestCliRoute:
    def test_group_and_table_build_no_whole_group(self, capsys):
        # L, Lq and T are read from their blocks: neither the whole group
        # nor its relation matrix is built
        before = (lie.lie_group.cache_info().misses,
                  treegroups.t_group.cache_info().misses)
        for name, order in (("L", "6"), ("Lq", "6"), ("T", "5")):
            assert cli.main(["--max-order", "5", "group", name, "--order",
                             order, "--labels", "2", "--generators"]) == 0
        assert cli.main(["table", "--names", "L,Lq,T", "--max-order", "5",
                         "--labels", "2"]) == 0
        capsys.readouterr()
        assert (lie.lie_group.cache_info().misses,
                treegroups.t_group.cache_info().misses) == before

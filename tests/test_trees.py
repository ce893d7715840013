"""Canonical forms, enumeration, and products of unitrivalent trees."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (canonical_unrooted_by_rootings, ihx_vertex_raw,
                     onequad_rooted_raw, onequad_unrooted_expansions)
from quasilie import trees
from quasilie.trees import (UnrootedTree, canonical_rooted,
                            canonical_rootings, canonical_unrooted,
                            edge_splits, ihx_relators, inner_product, leaf,
                            node, onequad_rooted_expansions, parse_label,
                            parse_tree, parse_unrooted, root_at,
                            rooted_trees, rootings, unrooted_trees)


def raw_trees(order, m):
    if order == 0:
        return [leaf(i) for i in range(1, m + 1)]
    out = []
    for k in range(order):
        for a in raw_trees(k, m):
            for b in raw_trees(order - 1 - k, m):
                out.append(node(a, b))
    return out


class TestCanonicalRooted:
    def test_single_swap(self):
        c = canonical_rooted(node(leaf(2), leaf(1)))
        assert c.tree is node(leaf(1), leaf(2))
        assert c.sign == -1 and not c.self_negating

    def test_identical_siblings(self):
        c = canonical_rooted(node(leaf(1), leaf(1)))
        assert c.tree is node(leaf(1), leaf(1))
        assert c.sign == 1 and c.self_negating

    def test_leaf(self):
        c = canonical_rooted(leaf(1))
        assert c.tree is leaf(1) and c.sign == 1 and not c.self_negating

    def test_idempotent(self):
        for o in range(4):
            for t in rooted_trees(o, 3):
                c = canonical_rooted(t)
                assert c.tree is t and c.sign == 1

    def test_scramble_sign_is_swap_parity(self):
        rng = random.Random(7)

        def scramble(t):
            if t.is_leaf:
                return t, 0
            l, sl = scramble(t.left)
            r, sr = scramble(t.right)
            if rng.random() < 0.5:
                return node(r, l), sl + sr + 1
            return node(l, r), sl + sr

        for _ in range(300):
            t = rng.choice(rooted_trees(rng.randint(0, 5), 2))
            s, swaps = scramble(t)
            c = canonical_rooted(s)
            assert c.tree is t
            if not c.self_negating:
                assert c.sign == (-1) ** swaps


class TestCanonicalUnrooted:
    def test_order_zero_edge(self):
        c = canonical_unrooted(2, leaf(1))
        assert c.tree == UnrootedTree(1, leaf(2))
        assert c.sign == 1 and not c.self_negating

    def test_orientation_reversal_flips_sign(self):
        c1 = canonical_unrooted(1, node(leaf(2), leaf(3)))
        c2 = canonical_unrooted(1, node(leaf(3), leaf(2)))
        assert c1.tree == c2.tree
        assert c1.sign == -c2.sign
        assert not c1.self_negating

    def test_repeated_label_y_self_negating(self):
        # brute-force orbit: every rooting agrees on the flag
        flags = set()
        for lab, t in rootings(1, node(leaf(1), leaf(2))):
            flags.add(canonical_unrooted(lab, t).self_negating)
        assert flags == {True}

    def test_rerooting_invariance_exhaustive(self):
        for o in range(4):
            for t in rooted_trees(o, 2):
                for i in (1, 2):
                    base = canonical_unrooted(i, t)
                    for lab, rt in rootings(i, t):
                        again = canonical_unrooted(lab, rt)
                        assert again.tree == base.tree
                        assert again.self_negating == base.self_negating


def exact(c):
    return (c.tree.key, c.sign, c.self_negating)


def raw_pairs(order, m):
    """Every rooting of every canonical unrooted tree, each also with the
    children of its root swapped, and every IHX term."""
    for u in unrooted_trees(order, m):
        for lab, t in rootings(u.label, u.tree):
            yield lab, t
            if not t.is_leaf:
                yield lab, node(t.right, t.left)
    for trip in onequad_unrooted_expansions(order, m):
        for pair, _sign in trip:
            yield pair


@st.composite
def reoriented_trees(draw):
    """A raw pair <i, T> of order 7 or 8 with random shape, labels and
    child order, then re-rooted by root_at at a random vertex."""
    m = draw(st.integers(1, 3))

    def tree(order):
        if order == 0:
            return leaf(draw(st.integers(1, m)))
        k = draw(st.integers(0, order - 1))
        a, b = tree(k), tree(order - 1 - k)
        return node(b, a) if draw(st.booleans()) else node(a, b)

    order = draw(st.integers(7, 8))
    label, t = draw(st.integers(1, m)), tree(order)
    return root_at(UnrootedTree(label, t), draw(st.integers(0, order + 1)))


class TestCanonicalRootings:
    """The canonical walk is rootings() with every rooted part canonical."""

    @staticmethod
    def check(lab, t):
        assert list(canonical_rootings(lab, t)) \
            == [(i, canonical_rooted(r)) for i, r in rootings(lab, t)]

    @pytest.mark.parametrize("order,m", [(o, 2) for o in range(6)]
                             + [(o, 3) for o in range(4)])
    def test_raw_pairs(self, order, m):
        for lab, t in raw_pairs(order, m):
            self.check(lab, t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(reoriented_trees())
    def test_random_reoriented(self, pair):
        self.check(*pair)


class TestAgainstRootingsOracle:
    @pytest.mark.parametrize("order,m", [(o, 2) for o in range(8)]
                             + [(o, 3) for o in range(6)])
    def test_exhaustive(self, order, m):
        for lab, t in raw_pairs(order, m):
            assert exact(canonical_unrooted(lab, t)) \
                == exact(canonical_unrooted_by_rootings(lab, t)), (lab, t)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(reoriented_trees())
    def test_random_reoriented(self, pair):
        lab, t = pair
        assert exact(canonical_unrooted(lab, t)) \
            == exact(canonical_unrooted_by_rootings(lab, t))


SMALL = [(o, 2) for o in range(7)] + [(o, 3) for o in range(5)]


class TestCanonicalHalves:
    """Relator terms built from canonical halves against raw-tree oracles."""

    @pytest.mark.parametrize("order,m", SMALL)
    def test_ihx_terms(self, order, m):
        # one triple per 4-valent vertex, in the oracle's order
        got = list(ihx_relators(order, m))
        want = list(ihx_vertex_raw(order, m))
        assert len(got) == len(want)
        for terms, trip in zip(got, want):
            for c, ((lab, t), _sign) in zip(terms, trip):
                assert exact(c) == exact(canonical_unrooted_by_rootings(lab, t))

    @pytest.mark.parametrize("binaries,m", [(b, 2) for b in range(5)]
                             + [(b, 3) for b in range(3)])
    def test_jacobi_triples(self, binaries, m):
        got = onequad_rooted_expansions(binaries, m)
        want = onequad_rooted_raw(binaries, m)
        assert len(got) == len(want)
        for trip, raw in zip(got, want):
            assert [exact(c) for c in trip] \
                == [exact(canonical_rooted(t)) for t in raw]

    @pytest.mark.parametrize("order,m", SMALL)
    def test_memo_holds_every_encoding(self, order, m, monkeypatch):
        # unrooted_trees meets each tree first at its least encoding, whose
        # own sign is +1; start every pass at the greatest one instead, on an
        # empty memo, so that the sign of the pass's start counts
        monkeypatch.setattr(trees, "_unrooted", {})
        pairs = [(i, t) for i in range(1, m + 1)
                 for t in rooted_trees(order, m)]
        for i, t in reversed(pairs):
            canonical_unrooted(i, t)
        assert set(trees._unrooted) == set(pairs)
        for (i, t), form in trees._unrooted.items():
            assert exact(form) == exact(canonical_unrooted_by_rootings(i, t))


class TestEnumerate:
    def test_rooted_order0(self):
        assert rooted_trees(0, 2) == (leaf(1), leaf(2))

    def test_unrooted_order0(self):
        got = [t.key for t in unrooted_trees(0, 2)]
        assert got == ["<1,1>", "<1,2>", "<2,2>"]

    def test_unrooted_order1(self):
        got = [t.key for t in unrooted_trees(1, 2)]
        assert got == ["<1,(1,1)>", "<1,(1,2)>", "<1,(2,2)>", "<2,(2,2)>"]
        assert len(got) == 4

    def test_against_brute_force(self):
        for o in range(4):
            for m in (1, 2):
                brute = sorted({canonical_rooted(t).tree.key
                                for t in raw_trees(o, m)})
                fast = sorted(t.key for t in rooted_trees(o, m))
                assert brute == fast
                brute_u = sorted({canonical_unrooted(i, t).tree.key
                                  for i in range(1, m + 1)
                                  for t in raw_trees(o, m)})
                fast_u = sorted(t.key for t in unrooted_trees(o, m))
                assert brute_u == fast_u


class TestProducts:
    def test_rooted_product(self):
        # (I, J) is node(I, J); trees are interned
        t = node(leaf(1), leaf(2))
        assert t is node(leaf(1), leaf(2)) and t.order == 1
        c = canonical_rooted(node(leaf(1), leaf(1)))
        assert c.self_negating
        t = node(node(leaf(1), leaf(2)), leaf(3))
        assert t.order == 2

    def test_inner_product_examples(self):
        c = inner_product(leaf(1), leaf(2))
        assert c.tree == UnrootedTree(1, leaf(2))
        c = inner_product(leaf(1), node(leaf(2), leaf(2)))
        assert c.tree == UnrootedTree(1, node(leaf(2), leaf(2)))
        assert c.self_negating
        # identical halves meet along an edge, not at a vertex: the exchange
        # symmetry preserves every cyclic orientation, so no AS sign
        c = inner_product(node(leaf(1), leaf(2)), node(leaf(1), leaf(2)))
        assert c.tree.order == 2
        assert not c.self_negating
        # a vertex-joined doubled branch does self-negate
        c = inner_product(leaf(1), node(node(leaf(1), leaf(2)),
                                        node(leaf(1), leaf(2))))
        assert c.self_negating

    def test_symmetry_sign_exact(self):
        pool = [t for o in range(3) for t in rooted_trees(o, 2)]
        for i_tree in pool:
            for j_tree in pool:
                a = inner_product(i_tree, j_tree)
                b = inner_product(j_tree, i_tree)
                assert (a.tree, a.sign, a.self_negating) \
                    == (b.tree, b.sign, b.self_negating)

    def test_invariance_sign_exact(self):
        pool = [t for o in range(2) for t in rooted_trees(o, 2)]
        for x in pool:
            for y in pool:
                for z in pool:
                    a = inner_product(node(x, y), z)
                    b = inner_product(x, node(y, z))
                    assert (a.tree, a.sign) == (b.tree, b.sign)


class TestRootAt:
    def test_edge_rooting(self):
        t = UnrootedTree(1, leaf(2))
        assert root_at(t, 0) == (1, leaf(2))

    def test_y_tree(self):
        t = UnrootedTree(1, node(leaf(2), leaf(3)))
        lab, rt = root_at(t, 0)
        assert lab == 1 and rt is node(leaf(2), leaf(3))

    def test_doubled_edge_gives_two_copies(self):
        t = UnrootedTree(1, leaf(1))
        got = [root_at(t, v) for v in range(2)]
        assert got == [(1, leaf(1)), (1, leaf(1))]

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            root_at(UnrootedTree(1, leaf(2)), 5)


class TestEdgeSplits:
    def test_count_and_reassembly(self):
        for o in range(4):
            for t in rooted_trees(o, 2):
                splits = edge_splits(1, t)
                assert len(splits) == 2 * t.order + 1
                base = canonical_unrooted(1, t)
                for left, right in splits:
                    assert inner_product(left, right).tree == base.tree


BAD_LABELS = ("1_0", "+1", "-1", " 1", "1 ", "0", "", "\u0663", "1\u0663",
              "\u00b9", "\uff11")


class TestGrammar:
    def test_roundtrip(self):
        for text in ("1", "(1,2)", "((1,2),(1,(2,2)))"):
            assert parse_tree(text).key == text

    def test_unrooted(self):
        lab, t = parse_unrooted("<1,(2,2)>")
        assert lab == 1 and t.key == "(2,2)"

    def test_errors(self):
        labels = [f(lab) for lab in BAD_LABELS
                  for f in ("({},1)".format, "<{},(1,2)>".format,
                            "<1,(1,{})>".format)]
        for bad in ["", "(1", "(1,)", "1x", "<1>", "(1,2))"] + labels:
            with pytest.raises(ValueError):
                if bad.startswith("<"):
                    parse_unrooted(bad)
                else:
                    parse_tree(bad)

    def test_tree_text_is_read_exactly(self):
        # whitespace is trimmed once around a whole token, by its reader;
        # the tree inside is read exactly
        for bad in (" 1", "1 ", " (1,2)", "(1,2) ", "( 1,2)", "(1,2 )",
                    "\t(1,2)", "(1,2)\n"):
            with pytest.raises(ValueError):
                parse_tree(bad)
        for token in (" <1,(1,2)>", "<1,(1,2)> ", "\t<1,(1,2)>\n"):
            assert parse_unrooted(token) == parse_unrooted("<1,(1,2)>")

    def test_multidigit_labels(self):
        t = parse_tree("(10,11)")
        assert t.left.label == 10 and t.right.label == 11

    def test_label_reader(self):
        assert parse_label("1") == 1 and parse_label("12") == 12
        assert parse_unrooted("<12,(1,2)>")[0] == 12
        # int() reads most of these as a number; the grammar reads none
        for bad in BAD_LABELS:
            with pytest.raises(ValueError):
                parse_label(bad)


class TestUnrootedMemo:
    """parse_unrooted is memoised on its text; leaf() and node() hash-cons
    trees, so a cached read is the read a fresh parse makes."""

    def test_reads_are_identical_and_equal_an_uncached_read(self):
        for text in ("<1,(2,2)>", "<2,((1,2),1)>", " <1,1> ", "<3,2>"):
            first = parse_unrooted(text)
            assert parse_unrooted(text) is first
            fresh = parse_unrooted.__wrapped__(text)
            assert fresh == first
            assert fresh[1] is first[1]

    @pytest.mark.parametrize("bad", [
        "", "<", "<1>", "<1,>", "<,1>", "1,2", "<1,(1,2)", "<1,(1,2)>>",
        "<1_0,(1,2)>", "<+1,(1,2)>", "< 1,(1,2)>", "<0,1>", "<\u0663,1>",
        "<1,(1,\u0663)>", "<1, (1,2)>", "<1,(1,2) >", "<1,(1, 2)>"])
    def test_bad_input_raises_every_time_and_stores_nothing(self, bad):
        # a text not of the shape <i,T> gets the grammar message, never one
        # that leaks from a string method
        text = bad.strip()
        shaped = (text.startswith("<") and text.endswith(">")
                  and "," in text[1:-1])
        size = parse_unrooted.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError) as err:
                parse_unrooted(bad)
            grammar = str(err.value) == "unrooted tree must look like '<i,T>'"
            assert grammar != shaped, str(err.value)
        assert parse_unrooted.cache_info().currsize == size

    def test_keys_read_back(self):
        for n, m in [(n, 2) for n in range(6)] + [(n, 3) for n in range(5)]:
            for u in unrooted_trees(n, m):
                label, tree = parse_unrooted(u.key)
                assert (label, tree) == (u.label, u.tree)
                assert tree is u.tree

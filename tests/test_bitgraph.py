"""The digraph plumbing against Tarjan's algorithm and the plain bit loop."""

import random

import pytest

from dualfix import AntisymmetryViolation, build_poset
from dualfix.bitgraph import bits, dag_reach, select, tarjan_scc, topo_order

from helpers import closure_rows


def random_digraph(rng, n, p, acyclic):
    """Successor masks without self-loops; with ``acyclic`` set, every edge
    runs from a vertex to a later one in a random linear order."""
    rank = list(range(n))
    rng.shuffle(rank)
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p and (not acyclic or rank[i] < rank[j]):
                adj[i] |= 1 << j
    return adj


def random_digraphs(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randrange(0, 30)
        yield random_digraph(rng, n, rng.choice([0.02, 0.05, 0.1, 0.3]), acyclic=k % 2 == 0)


class TestTopoOrder:
    def test_none_exactly_when_tarjan_finds_a_cycle(self):
        outcomes = set()
        for adj in random_digraphs(5, 600):
            cyclic = any(len(comp) > 1 for comp in tarjan_scc(adj))
            order = topo_order(adj)
            assert (order is None) == cyclic
            outcomes.add(cyclic)
        assert outcomes == {True, False}

    def test_every_vertex_comes_after_all_it_reaches(self):
        for adj in random_digraphs(7, 600):
            order = topo_order(adj)
            if order is None:
                continue
            assert sorted(order) == list(range(len(adj)))
            position = {v: k for k, v in enumerate(order)}
            reach = closure_rows(adj)
            for v in range(len(adj)):
                assert all(position[w] < position[v] for w in bits(reach[v] & ~(1 << v)))

    def test_small_cases(self):
        assert topo_order([]) == []
        assert topo_order([0]) == [0]
        assert topo_order([0b10, 0b100, 0]) == [2, 1, 0]
        assert topo_order([0b10, 0b1]) is None
        assert topo_order([0b10, 0b100, 0b10]) is None


class TestDagReach:
    def test_rows_against_the_naive_closure(self):
        rng = random.Random(13)
        for adj in random_digraphs(9, 300):
            order = topo_order(adj)
            if order is None:
                continue
            reach = closure_rows(adj)
            assert dag_reach(adj, order) == reach
            rows = [rng.getrandbits(40) for _ in adj]
            want = [0] * len(adj)
            for v in range(len(adj)):
                for w in bits(reach[v]):
                    want[v] |= rows[w]
            assert dag_reach(adj, order, rows) == want


class TestSelect:
    @pytest.mark.parametrize("width", [1, 7, 8, 63, 64, 65, 300])
    def test_matches_the_bit_loop(self, width):
        rng = random.Random(width)
        seq = [f"x{i}" for i in range(width)]
        top = 1 << width - 1
        masks = [0, top, (1 << width) - 1, top | 1]
        masks += [rng.getrandbits(width) for _ in range(50)]
        masks += [1 << rng.randrange(width) for _ in range(10)]
        for mask in masks:
            assert list(select(seq, mask)) == [seq[i] for i in bits(mask)]

    def test_empty_mask_and_the_end_of_the_sequence(self):
        assert list(select([], 0)) == []
        assert list(select("abc", 0b11110)) == ["b", "c"]


def tarjan_build_witness(elements, pairs):
    """The pair AntisymmetryViolation named when build_poset ran one Tarjan
    pass on every input: the two least elements of the first strongly
    connected part with more than one element, or None for a poset."""
    ids = sorted(elements)
    index = {x: i for i, x in enumerate(ids)}
    adj = [0] * len(ids)
    for lo, hi in pairs:
        if lo != hi:
            adj[index[lo]] |= 1 << index[hi]
    for comp in tarjan_scc(adj):
        if len(comp) > 1:
            a, b = sorted(comp)[:2]
            return (ids[a], ids[b])
    return None


def test_the_antisymmetry_witness_matches_the_tarjan_build():
    rng = random.Random(11)
    outcomes = set()
    for k in range(400):
        n = rng.randrange(1, 16)
        ids = [f"v{i:02d}" for i in range(n)]
        if k % 2:
            ids.reverse()
        adj = random_digraph(rng, n, rng.choice([0.05, 0.1, 0.2]), acyclic=False)
        pairs = [(ids[i], ids[j]) for i in range(n) for j in bits(adj[i])]
        pairs += [(x, x) for x in ids if rng.random() < 0.1]
        rng.shuffle(pairs)
        expected = tarjan_build_witness(ids, pairs)
        outcomes.add(expected is None)
        if expected is None:
            build_poset(ids, pairs)
            continue
        with pytest.raises(AntisymmetryViolation) as exc:
            build_poset(ids, pairs)
        assert tuple(exc.value.payload["witness"]) == expected
    assert outcomes == {True, False}

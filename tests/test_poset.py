import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualfix.poset
from dualfix import (
    AntisymmetryViolation,
    DuplicateElement,
    MonotoneMap,
    NotMonotone,
    OrderIdeal,
    Poset,
    SizeBoundExceeded,
    UnknownElement,
    build_poset,
    count_ideals,
    fixpoints_via_duality,
    is_monotone,
    iter_ideal_masks,
)
from dualfix.bitgraph import bits, topo_order, transpose_masks
from dualfix.poset import _cover_masks
from helpers import (
    all_ideals,
    antichain_shape,
    assert_generated,
    brute_closure_pairs,
    brute_ideal_sets,
    brute_is_monotone,
    capped_prefix,
    climbing_cover_masks,
    closure_ideal_masks,
    closure_is_down_closed,
    closed_poset,
    closure_rows,
    covers_count_ideals,
    down_set,
    fresh_names,
    grid_shape,
    labeled_posets,
    layered_shape,
    mask_count_ideals,
    mask_generating_extension,
    lex_key_ideal_masks,
    noniso_posets,
    noniso_posets_upto,
    ordinal_sum,
    random_monotone_between,
    random_poset,
    renamed_shape,
    scan_monotone_witness,
    sweep_build_poset,
    union_member_masks,
)


def noisy_pairs(rng, p):
    """Generating pairs of p: its covers plus some redundant closed pairs,
    reflexive pairs and duplicates, shuffled."""
    pairs = list(p.covers())
    closed = [(x, y) for x in p for y in p if x != y and p.leq(x, y)]
    pairs += rng.sample(closed, len(closed) // 3)
    pairs += [(x, x) for x in p if rng.random() < 0.3]
    pairs += rng.sample(pairs, len(pairs) // 4)
    rng.shuffle(pairs)
    return pairs


def noisy_random_posets(seed, count, max_size):
    rng = random.Random(seed)
    for _ in range(count):
        p = random_poset(rng, rng.randrange(0, max_size + 1))
        yield rng, build_poset(list(p.elements), noisy_pairs(rng, p))


@st.composite
def posets(draw, max_size=6):
    n = draw(st.integers(min_value=0, max_value=max_size))
    ids = [f"e{k}" for k in range(n)]
    shuffled = draw(st.permutations(ids))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(slots), unique=True) if slots else st.just([]))
    return build_poset(ids, [(shuffled[i], shuffled[j]) for i, j in picks])


class TestBuildPoset:
    def test_two_chain_closure_of_one_cover(self):
        p = build_poset(["p", "q"], [("p", "q")])
        rel = {(x, y) for x in p for y in p if p.leq(x, y)}
        assert rel == {("p", "p"), ("q", "q"), ("p", "q")}

    def test_antichain_has_identity_relation(self):
        p = build_poset(["a", "b"], [])
        rel = {(x, y) for x in p for y in p if p.leq(x, y)}
        assert rel == {("a", "a"), ("b", "b")}

    def test_forced_two_cycle_is_rejected(self):
        with pytest.raises(AntisymmetryViolation) as exc:
            build_poset(["x", "y"], [("x", "y"), ("y", "x")])
        assert set(exc.value.payload["witness"]) == {"x", "y"}

    def test_longer_cycle_is_rejected(self):
        with pytest.raises(AntisymmetryViolation):
            build_poset(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])

    def test_duplicate_element(self):
        with pytest.raises(DuplicateElement):
            build_poset(["x", "x"], [])

    def test_unknown_element_in_pairs(self):
        with pytest.raises(UnknownElement):
            build_poset(["x"], [("x", "y")])

    def test_reflexive_pairs_are_harmless(self):
        p = build_poset(["x", "y"], [("x", "x"), ("x", "y")])
        assert p.leq("x", "y")

    def test_empty_poset_is_permitted(self):
        p = build_poset([], [])
        assert len(p) == 0
        assert [i.name for i in all_ideals(p)] == ["{}"]

    def test_closure_matches_brute_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randrange(1, 7)
            p = random_poset(rng, n)
            # rebuild from a generating set and compare the full relation
            pairs = [(x, y) for x in p for y in p if x != y and p.leq(x, y)]
            rel = {(x, y) for x in p for y in p if p.leq(x, y)}
            assert rel == brute_closure_pairs(p.elements, pairs)

    def test_closure_idempotent_on_full_relation(self):
        rng = random.Random(11)
        for _ in range(25):
            p = random_poset(rng, rng.randrange(0, 7))
            pairs = [(x, y) for x in p for y in p if p.leq(x, y)]
            assert build_poset(list(p.elements), pairs) == p

    def test_unsorted_identifiers_are_rejected(self):
        with pytest.raises(ValueError):
            Poset(["b", "a"], [0, 0], [0, 1])

    def test_covers_regenerate_the_poset(self):
        rng = random.Random(13)
        for _ in range(25):
            p = random_poset(rng, rng.randrange(0, 7))
            assert build_poset(list(p.elements), p.covers()) == p

    def test_down_masks_are_the_transpose_of_the_up_masks(self):
        for _, p in noisy_random_posets(17, 200, 12):
            assert list(p.down_masks) == transpose_masks(p.up_masks)

    def test_generators_are_the_strict_input_edges(self):
        for rng, p in noisy_random_posets(19, 100, 10):
            pairs = noisy_pairs(rng, p)
            q = build_poset(list(p.elements), pairs)
            assert q == p
            expected = {(x, y) for x, y in pairs if x != y}
            got = {(p.elements[i], p.elements[j]) for i in range(len(p)) for j in bits(q.gen_masks[i])}
            assert got == expected

    def test_other_generators_of_the_same_order_are_equal_and_hash_equal(self):
        for _, p in noisy_random_posets(29, 100, 10):
            pairs = [(x, y) for x in p for y in p if p.leq(x, y)]
            covers = build_poset(list(p.elements), p.covers())
            closed = build_poset(list(p.elements), pairs)
            assert covers == closed == p
            assert hash(covers) == hash(closed) == hash(p)
            if len(pairs) - len(p) > len(p.covers()):
                assert covers.gen_masks != closed.gen_masks


def _fault(build, elements, pairs):
    """The class and payload of the fault a build raises, None when it accepts."""
    try:
        build(elements, pairs)
    except (DuplicateElement, UnknownElement, AntisymmetryViolation) as exc:
        return type(exc), exc.payload
    return None


class TestOrderWithoutSweep:
    """Differential: build_poset, which skips the depth-first sweep when
    every edge ascends, against the build that always runs it."""

    @staticmethod
    def _inputs():
        """Every poset of at most 5 elements, with ids ascending along the
        order, reversed and shuffled, and its strict pairs shuffled."""
        rng = random.Random(163)
        for n in range(6):
            for p in labeled_posets(n):
                pairs = [(x, y) for x in p for y in p if x != y and p.leq(x, y)]
                rng.shuffle(pairs)
                for naming in ("ascending", "reversed", "shuffled"):
                    rename = fresh_names(p, rng, naming)
                    yield naming, sorted(rename.values()), [(rename[x], rename[y]) for x, y in pairs]

    def test_every_small_poset_in_every_naming(self):
        for naming, elements, pairs in self._inputs():
            got = build_poset(elements, pairs)
            swept = sweep_build_poset(elements, pairs)
            assert got == swept and got.gen_masks == swept.gen_masks, (naming, pairs)
            listed = 0
            for v in got.order:
                assert not got.up_masks[v] & ~(1 << v) & ~listed, (naming, pairs)
                listed |= 1 << v
            assert sorted(got.order) == list(range(len(got)))

    def test_ascending_ids_run_no_sweep_and_descending_ids_do(self, monkeypatch):
        calls = []

        def counted(adj):
            calls.append(len(adj))
            return topo_order(adj)

        monkeypatch.setattr(dualfix.poset, "topo_order", counted)
        for naming, elements, pairs in self._inputs():
            del calls[:]
            build_poset(elements, pairs)
            if naming == "ascending":
                assert calls == []
            elif naming == "reversed" and pairs:
                assert calls == [len(elements)]

    def test_faults_come_first_as_in_the_swept_build(self):
        rng = random.Random(167)
        faults = set()
        for _ in range(1500):
            n = rng.randrange(1, 6)
            ids = [f"e{k}" for k in range(n)]
            elements = ids + rng.sample(ids, rng.randrange(0, 2))
            rng.shuffle(elements)
            pool = ids + (["u0", "u1"] if rng.random() < 0.3 else [])
            pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randrange(0, 7))]
            got = _fault(build_poset, elements, pairs)
            assert got == _fault(sweep_build_poset, elements, pairs), (elements, pairs)
            faults.add(got and got[0])
        assert faults == {None, DuplicateElement, UnknownElement, AntisymmetryViolation}


class TestPrincipalIdeal:
    def test_chain_top_is_whole_chain(self, two_chain):
        assert down_set(two_chain, "q").members == ("p", "q")

    def test_chain_bottom_is_singleton(self, two_chain):
        assert down_set(two_chain, "p").members == ("p",)

    def test_antichain_point(self, two_antichain):
        assert down_set(two_antichain, "a").members == ("a",)

    def test_unknown_element(self, two_chain):
        with pytest.raises(UnknownElement):
            down_set(two_chain, "zz")

    def test_always_an_ideal_and_least_containing(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_poset(rng, rng.randrange(1, 7))
            for x in p:
                down = down_set(p, x)
                assert p.is_down_closed(p.mask_from(down.members))
                assert x in down
                # least: every ideal containing x contains all of it
                for other in all_ideals(p):
                    if x in other:
                        assert down.mask & ~other.mask == 0


class TestIsOrderIdeal:
    def test_chain_examples(self, two_chain):
        assert two_chain.is_down_closed(two_chain.mask_from({"p"}))
        assert not two_chain.is_down_closed(two_chain.mask_from({"q"}))

    def test_empty_set_vacuous(self, two_chain, two_antichain):
        assert two_chain.is_down_closed(two_chain.mask_from(set()))
        assert two_antichain.is_down_closed(two_antichain.mask_from(set()))

    def test_unknown_member(self, two_chain):
        with pytest.raises(UnknownElement):
            two_chain.mask_from({"zz"})


class TestEnumerateIdeals:
    def test_two_chain_frozen(self, two_chain):
        # oracle: the 4 subsets filtered down to {}, {p}, {p,q}
        assert {frozenset(i.members) for i in all_ideals(two_chain)} == set(
            brute_ideal_sets(two_chain)
        )
        assert [i.name for i in all_ideals(two_chain)] == ["{}", "{p}", "{p,q}"]

    def test_two_antichain_frozen(self, two_antichain):
        assert [i.name for i in all_ideals(two_antichain)] == ["{}", "{a}", "{b}", "{a,b}"]

    def test_matches_brute_filter_exhaustively(self):
        for p in noniso_posets_upto(5):
            got = [frozenset(i.members) for i in all_ideals(p)]
            assert len(set(got)) == len(got), "duplicate ideal emitted"
            assert set(got) == set(brute_ideal_sets(p))

    def test_canonical_order(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_poset(rng, rng.randrange(0, 7))
            names = [(len(i), i.members) for i in all_ideals(p)]
            assert names == sorted(names)

    def test_chain_and_antichain_counts(self):
        for n in range(16):
            chain = build_poset(
                [f"c{k:02d}" for k in range(n)],
                [(f"c{k:02d}", f"c{k + 1:02d}") for k in range(n - 1)],
            )
            assert sum(1 for _ in iter_ideal_masks(chain)) == n + 1
            anti = build_poset([f"a{k:02d}" for k in range(n)], [])
            assert sum(1 for _ in iter_ideal_masks(anti)) == 2**n

    def test_includes_empty_and_full(self):
        rng = random.Random(17)
        p = random_poset(rng, 5)
        ideals = list(all_ideals(p))
        assert ideals[0].members == ()
        assert ideals[-1].members == p.elements

    def test_count_cap_raises(self, two_antichain):
        with pytest.raises(SizeBoundExceeded):
            list(iter_ideal_masks(two_antichain, max_count=3))
        assert len(list(iter_ideal_masks(two_antichain, max_count=4))) == 4


def _walk_count(p):
    return sum(1 for _ in iter_ideal_masks(p))


def _random_posets(seed, count, max_size):
    rng = random.Random(seed)
    return [random_poset(rng, rng.randrange(0, max_size + 1)) for _ in range(count)]


def _twin_heavy_posets(seed):
    """Ordinal sums of antichains, layered posets and antichains summed with
    grids, some with isolated points beside them, each under shuffled names
    and names that run against the order, from its covers and from noisy
    redundant pairs."""
    rng = random.Random(seed)
    shapes = [
        ordinal_sum(antichain_shape(5), antichain_shape(4)),
        ordinal_sum(antichain_shape(3), antichain_shape(1), antichain_shape(4), antichain_shape(2)),
        layered_shape(4, 3),
        layered_shape(3, 5),
        ordinal_sum(antichain_shape(4), grid_shape(3, 3)),
        ordinal_sum(grid_shape(2, 3), antichain_shape(4), antichain_shape(2)),
        ordinal_sum(antichain_shape(3), grid_shape(2, 2), antichain_shape(3)),
    ]
    elements, pairs = layered_shape(3, 3)
    shapes.append((elements + ["iso0", "iso1"], pairs))
    for shape in shapes:
        for naming in ("shuffled", "reversed"):
            elements, pairs = renamed_shape(shape, rng, naming)
            p = build_poset(elements, pairs)
            yield p
            yield build_poset(elements, noisy_pairs(rng, p))


class TestCountIdeals:
    def test_matches_walk_exhaustively(self):
        for p in noniso_posets_upto(5):
            assert count_ideals(p) == covers_count_ideals(p) == _walk_count(p)

    def test_matches_walk_on_random_posets(self):
        for p in _random_posets(23, 500, 12):
            assert count_ideals(p) == _walk_count(p)
        for rng, p in noisy_random_posets(29, 500, 12):
            pairs = noisy_pairs(rng, p)
            for q in (build_poset(list(p.elements), pairs), _reversed_ids(p, pairs)):
                assert count_ideals(q) == covers_count_ideals(q) == _walk_count(q)

    def test_matches_walk_on_twin_heavy_posets(self):
        for p in _twin_heavy_posets(53):
            assert count_ideals(p) == covers_count_ideals(p) == _walk_count(p)

    def test_counting_closes_nothing(self):
        for p in _twin_heavy_posets(59):
            count_ideals(p, max_count=10**6)
            assert p._up_masks is None and p._down_masks is None

    def test_closed_forms_beyond_enumeration(self):
        rows = cols = 20
        ids = {(r, c): f"g{r:02d}x{c:02d}" for r in range(rows) for c in range(cols)}
        pairs = [(ids[r, c], ids[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
        pairs += [(ids[r, c], ids[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
        assert count_ideals(build_poset(list(ids.values()), pairs)) == comb(rows + cols, rows)
        anti = build_poset([f"a{k:04d}" for k in range(1000)], [])
        assert count_ideals(anti) == 2**1000
        assert count_ideals(build_poset([], [])) == 1
        # an ordinal sum of antichains has one ideal per proper subset of
        # one summand above all of the summands below it, plus the top
        assert count_ideals(build_poset(*ordinal_sum(antichain_shape(16), antichain_shape(16)))) == 2 * 2**16 - 1
        assert count_ideals(build_poset(*layered_shape(30, 12))) == 30 * (2**12 - 1) + 1

    def test_count_cap_is_exact(self):
        for p in noniso_posets_upto(4) + _random_posets(31, 50, 9) + list(_twin_heavy_posets(61)):
            fx = fixpoints_via_duality(MonotoneMap.identity(p))
            total = _walk_count(p)
            for cap in (1, total - 1, total, total + 1):
                if cap < 1:
                    continue
                if total > cap:
                    with pytest.raises(SizeBoundExceeded):
                        count_ideals(p, max_count=cap)
                    with pytest.raises(SizeBoundExceeded):
                        fx.count(max_count=cap)
                else:
                    assert count_ideals(p, max_count=cap) == total
                    assert fx.count(max_count=cap) == total

    def test_grid_with_identifiers_against_the_order(self):
        rows, cols = 60, 12
        ids = {(r, c): f"g{(rows - r) * cols - c:04d}" for r in range(rows) for c in range(cols)}
        pairs = [(ids[r, c], ids[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
        pairs += [(ids[r, c], ids[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
        grid = build_poset(list(ids.values()), pairs)
        assert count_ideals(grid) == comb(rows + cols, rows)
        with pytest.raises(SizeBoundExceeded):
            count_ideals(grid, max_count=2**20)


def _renamed(p, rng):
    """p under shuffled and reversed identifiers, and its order dual, built
    from its generating edges."""
    edges = [(p.elements[v], p.elements[w]) for v, row in enumerate(p.gen_masks) for w in bits(row)]
    shuffled = list(p.elements)
    rng.shuffle(shuffled)
    for names in (shuffled, p.elements[::-1]):
        rename = dict(zip(p.elements, names))
        yield build_poset(names, [(rename[x], rename[y]) for x, y in edges])
    yield build_poset(p.elements, [(y, x) for x, y in edges])


def _interleaved_posets(seed):
    """Unions of two to four random posets whose identifiers interleave, so
    that no component is a run of consecutive indices, with edges that all
    ascend and with edges against the identifiers."""
    rng = random.Random(seed)
    for _ in range(60):
        parts = [random_poset(rng, rng.randrange(2, 7)) for _ in range(rng.randrange(2, 5))]
        k = len(parts)
        elements, edges = [], []
        for i, part in enumerate(parts):
            name = [f"x{j * k + i:03d}" for j in range(len(part))]
            elements += name
            edges += [(name[v], name[w]) for v in range(len(part)) for w in bits(part.up_masks[v]) if v < w]
        yield build_poset(elements, edges)
        yield build_poset(elements, [(y, x) for x, y in edges])


class TestCountOnIndexLists:
    # count_ideals on index lists against the mask walk it replaced, kept in
    # helpers: the same linear extension, hence the same DP states, and the
    # same count and cap behaviour.

    @staticmethod
    def _posets():
        rng = random.Random(67)
        yield from noniso_posets_upto(5)
        for p in _random_posets(71, 150, 10):
            yield p
            yield from _renamed(p, rng)
        yield from _twin_heavy_posets(73)
        yield from _interleaved_posets(79)

    @staticmethod
    def _outcome(count, p, cap):
        try:
            return count(p, max_count=cap)
        except SizeBoundExceeded:
            return None

    def test_extension_and_count_match_the_mask_walk(self, monkeypatch):
        extensions = []

        def recorded(*args):
            extensions.append(extension(*args))
            return extensions[-1]

        extension = dualfix.poset._generating_extension
        monkeypatch.setattr(dualfix.poset, "_generating_extension", recorded)
        seen = {"ascending": 0, "descending": 0, "interleaved": 0}
        for p in self._posets():
            want = mask_generating_extension(p.gen_masks, p.pred_masks)
            succ = [tuple(bits(row)) for row in p.gen_masks]
            pred = [list(bits(row)) for row in p.pred_masks]
            ascending = all(w > v for v, row in enumerate(succ) for w in row)
            assert extension(succ, pred) == want
            del extensions[:]
            total = mask_count_ideals(p)
            assert count_ideals(p) == total
            assert extensions == [want]
            for cap in (total - 1, total, total + 1):
                if cap >= 1:
                    got = self._outcome(count_ideals, p, cap)
                    assert got == self._outcome(mask_count_ideals, p, cap) == (total if total <= cap else None)
            seen["ascending" if ascending else "descending"] += any(succ)
            seen["interleaved"] += ascending and want[0] != sorted(want[0])
        assert min(seen.values()) > 20, seen


class TestOrderIdeal:
    def test_rejects_non_ideal(self, two_chain):
        with pytest.raises(ValueError):
            OrderIdeal(two_chain, {"q"})

    def test_name_and_contains(self, two_chain):
        ideal = OrderIdeal(two_chain, {"p", "q"})
        assert ideal.name == "{p,q}"
        assert "p" in ideal and "q" in ideal
        assert len(ideal) == 2

    def test_rejects_masks_outside_the_carrier(self):
        # P = {a < b, c}: a negative mask has every bit set, and bit 100
        # names no element; both read as some set of members otherwise
        poset = build_poset(["a", "b", "c"], [("a", "b")])
        for mask in (-1, -2, 1 << 3, 1 << 100, (1 << 100) | 1):
            with pytest.raises(ValueError, match="outside the 3 elements"):
                OrderIdeal(poset, mask)
        assert [OrderIdeal(poset, m).members for m in (0, 1, 0b011, 0b111)] == [(), ("a",), ("a", "b"), ("a", "b", "c")]


class TestIsMonotone:
    def test_identity_is_valid(self):
        rng = random.Random(23)
        for _ in range(10):
            p = random_poset(rng, rng.randrange(0, 6))
            assert is_monotone({x: x for x in p}, p, p) == MonotoneMap.identity(p)

    def test_chain_collapse_valid(self, two_chain):
        phi = is_monotone({"p": "q", "q": "q"}, two_chain, two_chain)
        assert phi("p") == "q"

    def test_order_reversal_rejected(self, two_chain):
        with pytest.raises(NotMonotone) as exc:
            is_monotone({"p": "q", "q": "p"}, two_chain, two_chain)
        assert exc.value.payload["witness"] == ["p", "q"]

    def test_partial_table_rejected(self, two_chain):
        with pytest.raises(UnknownElement):
            is_monotone({"p": "q"}, two_chain, two_chain)

    def test_foreign_key_rejected(self, two_chain):
        with pytest.raises(UnknownElement):
            is_monotone({"p": "q", "q": "q", "zz": "p"}, two_chain, two_chain)

    def test_foreign_key_named_before_an_unknown_image(self, two_chain):
        # one entry per domain element, but not the domain's: the foreign
        # key is the witness, as in a table of any other size
        with pytest.raises(UnknownElement) as exc:
            is_monotone({"p": "zz", "r": "q"}, two_chain, two_chain)
        assert exc.value.payload["witness"] == ["r"]

    def test_matches_definitional_check(self):
        # every self-map table on small posets, validated both ways
        for p in noniso_posets(3):
            n = len(p)
            import itertools

            for image in itertools.product(range(n), repeat=n):
                table = {p.elements[i]: p.elements[image[i]] for i in range(n)}
                expected = brute_is_monotone(image, p)
                if expected:
                    assert is_monotone(table, p, p).image == image
                else:
                    with pytest.raises(NotMonotone):
                        is_monotone(table, p, p)

    @staticmethod
    def _check_against_scan(table, domain, codomain):
        image = [codomain.index(table[x]) for x in domain]
        witness = scan_monotone_witness(image, domain, codomain)
        if witness is None:
            assert is_monotone(table, domain, codomain).image == tuple(image)
        else:
            with pytest.raises(NotMonotone) as exc:
                is_monotone(table, domain, codomain)
            assert tuple(exc.value.payload["witness"]) == witness
        return witness is None

    def test_generator_check_matches_the_scan_on_every_small_selfmap(self):
        # every labeled poset of at most 4 elements, generated by all its
        # strict relations and rebuilt from its covers, and every self-map
        accepted = rejected = 0
        for n in range(5):
            for closed in labeled_posets(n):
                covers = build_poset(list(closed.elements), closed.covers())
                for image in product(closed.elements, repeat=n):
                    table = dict(zip(closed.elements, image))
                    monotone = self._check_against_scan(table, closed, closed)
                    assert self._check_against_scan(table, covers, covers) == monotone
                    if monotone:
                        accepted += 1
                    else:
                        rejected += 1
        assert (accepted, rejected) == (9741, 46850)

    def test_generator_check_matches_the_scan_on_noisy_random_posets(self):
        # redundant, reflexive and duplicate generating pairs; monotone maps,
        # monotone maps with one image moved, and maps into another poset
        for rng, p in noisy_random_posets(31, 300, 9):
            if not len(p):
                continue
            q = random_poset(rng, rng.randrange(1, 8), prefix="f")
            for codomain in (p, q):
                phi = random_monotone_between(rng, p, codomain)
                table = phi.table
                assert self._check_against_scan(table, p, codomain)
                table[rng.choice(p.elements)] = rng.choice(codomain.elements)
                self._check_against_scan(table, p, codomain)

    def test_composition(self, two_chain):
        phi = is_monotone({"p": "q", "q": "q"}, two_chain, two_chain)
        ident = MonotoneMap.identity(two_chain)
        assert phi.after(ident) == phi
        assert ident.after(phi) == phi


def _three_builds(rng, closed):
    """(elements, pairs) of a labeled poset rebuilt three ways: from its
    covers, from noisy generating pairs, and from those pairs with the
    identifiers renamed so that identifier order runs against the old one."""
    elements = list(closed.elements)
    pairs = noisy_pairs(rng, closed)
    rename = dict(zip(elements, reversed(elements)))
    return [(elements, closed.covers()), (elements, pairs), (elements, [(rename[x], rename[y]) for x, y in pairs])]


class TestMonotoneWalk:
    # is_monotone accepts along the generating edges and closes preimages
    # only from the first row whose edges it leaves open; its verdict and
    # witness must be those of the closed-rows scan, and an accepted map
    # must close neither poset.

    @staticmethod
    def _verdict(table, domain, codomain):
        """The walk's witness, or None after checking that the accepted map
        left both posets unclosed."""
        try:
            phi = is_monotone(table, domain, codomain)
        except NotMonotone as exc:
            return tuple(exc.payload["witness"])
        for p in (domain, codomain):
            assert p._up_masks is None and p._down_masks is None
        assert phi.image == tuple(codomain.index(table[x]) for x in domain)
        return None

    @staticmethod
    def _oracle(shape):
        p = build_poset(*shape)
        return closed_poset(p.elements, closure_rows(p.gen_masks))

    def test_every_map_of_every_poset_of_at_most_4_elements_to_itself(self):
        rng = random.Random(241)
        accepted = rejected = 0
        for n in range(5):
            for closed in labeled_posets(n):
                for shape in _three_builds(rng, closed):
                    oracle = self._oracle(shape)
                    for image in product(range(n), repeat=n):
                        table = {x: oracle.elements[c] for x, c in zip(oracle.elements, image)}
                        p = build_poset(*shape)
                        witness = self._verdict(table, p, p)
                        assert witness == scan_monotone_witness(image, oracle, oracle)
                        accepted += witness is None
                        rejected += witness is not None
        assert (accepted, rejected) == (3 * 9741, 3 * 46850)

    def test_every_map_between_two_posets_of_at_most_3_elements(self):
        rng = random.Random(251)
        small = [closed for n in range(4) for closed in labeled_posets(n)]
        for dom in small:
            for cod in small:
                dom_shapes, cod_shapes = _three_builds(rng, dom), _three_builds(rng, cod)
                for dom_shape, cod_shape in zip(dom_shapes, cod_shapes[1:] + cod_shapes[:1]):
                    dom_oracle, cod_oracle = self._oracle(dom_shape), self._oracle(cod_shape)
                    for image in product(range(len(cod)), repeat=len(dom)):
                        table = {x: cod_oracle.elements[c] for x, c in zip(dom_oracle.elements, image)}
                        witness = self._verdict(table, build_poset(*dom_shape), build_poset(*cod_shape))
                        assert witness == scan_monotone_witness(image, dom_oracle, cod_oracle)

    def test_edges_onto_comparable_pairs_that_are_no_generating_edge(self, monkeypatch):
        # The domain keeps noisy generating pairs, the codomain only the
        # covers of the same order, so the identity table and most monotone
        # maps send some generating edge onto a comparable pair that is no
        # generating edge of the codomain: the walk leaves it open and the
        # preimages are closed.
        closures = []
        reach = dualfix.poset.dag_reach

        def counted(*args):
            closures.append(len(args))
            return reach(*args)

        monkeypatch.setattr(dualfix.poset, "dag_reach", counted)
        rng = random.Random(257)
        through_closure = rejected = 0
        for _ in range(300):
            p = random_poset(rng, rng.randrange(1, 13))
            noisy = (list(p.elements), noisy_pairs(rng, p))
            covers = (list(p.elements), p.covers())
            oracle = self._oracle(covers)
            moved = random_monotone_between(rng, p, p).table
            moved[rng.choice(p.elements)] = rng.choice(p.elements)
            for table in ({x: x for x in p.elements}, random_monotone_between(rng, p, p).table, moved):
                image = [oracle.index(table[x]) for x in oracle.elements]
                closures.clear()
                witness = self._verdict(table, build_poset(*noisy), build_poset(*covers))
                assert witness == scan_monotone_witness(image, oracle, oracle)
                if witness is None:
                    through_closure += bool(closures)
                else:
                    rejected += 1
        assert through_closure > 200 and rejected > 100

    def test_the_identity_of_a_poset_onto_itself_walks_nothing(self, monkeypatch):
        rng = random.Random(263)
        posets = []
        for _ in range(50):
            p = random_poset(rng, rng.randrange(0, 12))
            posets.append(build_poset(list(p.elements), noisy_pairs(rng, p)))
        monkeypatch.setattr(dualfix.poset, "dag_reach", None)
        for q in posets:
            assert self._verdict({x: x for x in q}, q, q) is None


def _small_generated_posets(seed):
    """Every labeled poset of at most 5 elements, rebuilt from its covers
    and from noisy generating pairs, so the closed rows are not cached."""
    rng = random.Random(seed)
    for n in range(6):
        for closed in labeled_posets(n):
            for pairs in (closed.covers(), noisy_pairs(rng, closed)):
                yield closed, build_poset(list(closed.elements), pairs)


def _generating_pairs(p):
    """The generating edges of p as (lesser, greater) pairs, read without
    closing them."""
    return [(p.elements[i], p.elements[j]) for i, row in enumerate(p.gen_masks) for j in bits(row)]


def _both_namings(seed, count, max_size):
    """Every labeled poset of at most 5 elements rebuilt from noisy
    generating pairs, then ``count`` seeded noisy random posets, each with
    identifiers in order and reversed."""
    rng = random.Random(seed)
    for n in range(6):
        for closed in labeled_posets(n):
            pairs = noisy_pairs(rng, closed)
            yield build_poset(list(closed.elements), pairs)
            yield _reversed_ids(closed, pairs)
    for rng, p in noisy_random_posets(seed + 1, count, max_size):
        pairs = noisy_pairs(rng, p)
        yield build_poset(list(p.elements), pairs)
        yield _reversed_ids(p, pairs)


def _reversed_ids(p, pairs):
    """p rebuilt from ``pairs`` with its identifiers renamed so that
    identifier order runs against the old one."""
    rename = dict(zip(p.elements, reversed(p.elements)))
    return build_poset(list(p.elements), [(rename[x], rename[y]) for x, y in pairs])


def _cover_masks_both(p):
    """(lower, upper) from the cover reader, called with and without the
    list to fill, after checking that the two calls agree and left p as
    unclosed as it was."""
    closed = p._up_masks is not None, p._down_masks is not None
    upper = _cover_masks(p)
    lower = [0] * len(p)
    assert _cover_masks(p, lower) == upper
    assert (p._up_masks is not None, p._down_masks is not None) == closed
    return lower, upper


class TestGeneratorReaders:
    def test_closures_are_computed_on_first_read_and_equal_the_eager_closure(self):
        for closed, p in _small_generated_posets(37):
            assert p._up_masks is None and p._down_masks is None
            assert_generated(p)
            assert p.up_masks == closed.up_masks
            assert p.down_masks == closed.down_masks
            assert p.up_masks is p.up_masks

    def test_cover_masks_match_the_climbing_oracle(self):
        # the reader returns the upper covers and, given a list, fills in
        # the lower ones, which _birkhoff reads; it closes nothing on the
        # poset it reads
        for closed, p in _small_generated_posets(41):
            assert _cover_masks_both(p) == climbing_cover_masks(closed)
        for rng, p in noisy_random_posets(43, 300, 16):
            pairs = noisy_pairs(rng, p)
            for q in (build_poset(list(p.elements), pairs), _reversed_ids(p, pairs)):
                assert _cover_masks_both(q) == climbing_cover_masks(q)

    def test_down_closure_and_ideal_stream_match_the_closure(self):
        for closed, p in _small_generated_posets(47):
            q = _reversed_ids(p, _generating_pairs(p))
            for r, oracle in ((p, closed), (q, closed_poset(q.elements, closure_rows(q.gen_masks)))):
                for mask in range(1 << len(r)):
                    assert r.is_down_closed(mask) == closure_is_down_closed(oracle, mask)
                assert list(iter_ideal_masks(r)) == closure_ideal_masks(oracle)
                assert r._up_masks is None and r._down_masks is None

    def test_ideal_stream_matches_the_member_tuple_sort(self):
        for _, p in _small_generated_posets(53):
            assert list(iter_ideal_masks(p)) == lex_key_ideal_masks(p)
        for rng, p in noisy_random_posets(59, 200, 14):
            pairs = noisy_pairs(rng, p)
            for q in (build_poset(list(p.elements), pairs), _reversed_ids(p, pairs)):
                assert list(iter_ideal_masks(q)) == lex_key_ideal_masks(q)

    def test_capped_stream_stops_where_the_oracle_total_passes_the_cap(self):
        for q in _both_namings(67, 160, 10):
            full = lex_key_ideal_masks(q)
            for cap in range(1, len(full) + 2):
                got = []
                try:
                    for mask in iter_ideal_masks(q, max_count=cap):
                        got.append(mask)
                except SizeBoundExceeded:
                    raised = True
                else:
                    raised = False
                assert (got, raised) == capped_prefix(full, cap)

    def test_members_are_the_unions_of_the_quotient_ideal_classes(self):
        rng = random.Random(71)
        for q in _both_namings(73, 200, 12):
            for phi in (MonotoneMap.identity(q), random_monotone_between(rng, q, q)):
                fx = fixpoints_via_duality(phi)
                assert [m.mask for m in fx.iter_members()] == union_member_masks(fx.quotient)


def _with_transitive_edges(rng, shape, share):
    """The shape's pairs plus a ``share`` of its strict non-cover pairs, at
    least one."""
    elements, pairs = shape
    p = build_poset(elements, pairs)
    upper = climbing_cover_masks(p)[1]
    extra = [(p.elements[i], p.elements[j]) for i, row in enumerate(p.up_masks) for j in bits(row & ~upper[i] & ~(1 << i))]
    return elements, pairs + rng.sample(extra, max(1, round(len(extra) * share)))


def _mixed_height_shapes(rng):
    """Chains with skip edges, grids with diagonals, and ordinal sums with
    transitive edges: every one has a generating edge that is no cover, so
    a row whose generating successors lie at different heights."""
    for n in range(3, 12):
        names = [f"c{i:02d}" for i in range(n)]
        chain = [(names[i], names[i + 1]) for i in range(n - 1)]
        yield names, chain + [(names[i], names[i + 2]) for i in range(0, n - 2, 2)]
        yield _with_transitive_edges(rng, (names, chain), 0.3)
    for rows, cols in ((2, 2), (2, 5), (3, 3), (4, 3), (5, 4)):
        elements, pairs = grid_shape(rows, cols)
        diagonals = [(f"{r}x{c}", f"{r + 1}x{c + 1}") for r in range(rows - 1) for c in range(cols - 1)]
        yield elements, pairs + rng.sample(diagonals, max(1, len(diagonals) // 2))
    for _ in range(12):
        parts = [rng.choice((antichain_shape(rng.randrange(1, 4)), grid_shape(2, rng.randrange(1, 4)))) for _ in range(3)]
        yield _with_transitive_edges(rng, ordinal_sum(*parts), rng.choice((0.2, 0.5, 1.0)))


class TestCoversFromHeights:
    def test_mixed_height_rows_match_the_climbing_oracle(self):
        shapes = list(_mixed_height_shapes(random.Random(211)))
        mixed = 0
        for elements, pairs in shapes:
            p = build_poset(elements, pairs)
            for q in (p, _reversed_ids(p, pairs)):
                lower, upper = _cover_masks_both(q)
                assert (lower, upper) == climbing_cover_masks(q)
                mixed += upper != list(q.gen_masks)
        assert mixed == 2 * len(shapes)

    def test_covers_of_a_graded_cover_only_input_close_nothing(self):
        rng = random.Random(223)
        shapes = [grid_shape(4, 3), layered_shape(3, 3), antichain_shape(5), ordinal_sum(antichain_shape(2), grid_shape(2, 3))]
        shapes += [renamed_shape(grid_shape(3, 5), rng, naming) for naming in ("shuffled", "reversed")]
        for elements, pairs in shapes:
            p = build_poset(elements, pairs)
            covers = p.covers()
            assert p._up_masks is None and p._down_masks is None
            assert sorted(covers) == sorted(pairs)


class TestEnumerationHelpers:
    def test_labeled_poset_counts(self):
        assert [len(labeled_posets(n)) for n in range(5)] == [1, 1, 3, 19, 219]

    def test_nonisomorphic_poset_counts(self):
        assert [len(noniso_posets(n)) for n in range(7)] == [1, 1, 2, 5, 16, 63, 318]


@settings(max_examples=60, deadline=None)
@given(posets())
def test_property_closure_idempotent(p):
    pairs = [(x, y) for x in p for y in p if p.leq(x, y)]
    assert build_poset(list(p.elements), pairs) == p


@settings(max_examples=60, deadline=None)
@given(posets(max_size=5))
def test_property_principal_ideals_are_ideals(p):
    for x in p:
        assert p.is_down_closed(p.mask_from(down_set(p, x).members))


@settings(max_examples=40, deadline=None)
@given(posets(max_size=5))
def test_property_enumeration_matches_brute(p):
    assert {frozenset(i.members) for i in all_ideals(p)} == set(brute_ideal_sets(p))

import random
from itertools import permutations, product

import pytest

import dualfix.poset
from dualfix import (
    LatticeHom,
    MonotoneMap,
    count_ideals,
    QuotientNotAntisymmetric,
    NotALattice,
    NotDistributive,
    NotHom,
    SizeBoundExceeded,
    UnknownElement,
    build_poset,
    coequalizer_general,
    ideal_lattice,
    is_homomorphism,
    join_irreducibles,
    lattice_from_order,
    phi_components,
)
from dualfix.lattice import (
    _birkhoff,
    _irreducibles,
    _failing_triples,
    _is_lattice,
    _nonprime_irreducibles,
    _preserves_laws,
    _raise_hom_witness,
    _raise_lattice_witness,
)
from dualfix.bitgraph import bits, transpose_masks
from helpers import (
    assert_generated,
    birkhoff_eta,
    brute_join_irreducibles,
    brute_lattice_witness,
    climbing_preserves_laws,
    climbing_cover_masks,
    closure_birkhoff,
    closure_rows,
    complement_scan_ideal_lattice,
    down_set,
    fresh_names,
    grid_shape,
    hom_quotient,
    inclusion_rows,
    labeled_posets,
    lowest_two,
    noniso_posets_upto,
    push_preserves_laws,
    random_monotone_between,
    random_poset,
    relabelled_irreducibles,
    restrict,
    two_loop_birkhoff,
    unchecked,
)


class TestLatticeFromOrder:
    def test_three_chain_min_max(self, three_chain):
        lat = lattice_from_order(three_chain)
        assert lat.bot == "0" and lat.top == "1"
        for x in lat:
            for y in lat:
                lo, hi = sorted((x, y), key=three_chain.index)
                if three_chain.leq(lo, hi):
                    assert lat.meet(x, y) == min(x, y, key=lat.index)
                    assert lat.join(x, y) == max(x, y, key=lat.index)
        # a chain is totally ordered, so min/max by position works directly
        assert lat.meet("0", "1") == "0"
        assert lat.join("m", "1") == "1"

    def test_diamond_m3_not_distributive(self, diamond_m3):
        with pytest.raises(NotDistributive) as exc:
            lattice_from_order(diamond_m3)
        assert exc.value.payload["witness"] == ["a", "b", "c"]

    def test_bowtie_not_a_lattice(self, bowtie):
        with pytest.raises(NotALattice):
            lattice_from_order(bowtie)

    def test_empty_order_is_not_a_lattice(self):
        with pytest.raises(NotALattice):
            lattice_from_order(build_poset([], []))

    def test_size_bound(self, three_chain):
        with pytest.raises(SizeBoundExceeded):
            lattice_from_order(three_chain, max_size=2)

    def test_round_trips_ideal_lattices(self):
        # rebuilding from the underlying order reproduces the lattice exactly,
        # including the full distributivity validation
        rng = random.Random(29)
        for _ in range(15):
            lat = ideal_lattice(random_poset(rng, rng.randrange(0, 6)))
            assert lattice_from_order(lat.order) == lat


class TestIdealLattice:
    def test_two_chain_gives_three_chain(self, two_chain):
        lat = ideal_lattice(two_chain)
        assert sorted(lat.elements) == ["{p,q}", "{p}", "{}"]
        assert lat.bot == "{}" and lat.top == "{p,q}"
        assert lat.meet("{p}", "{p,q}") == "{p}"
        assert lat.join("{p}", "{}") == "{p}"
        assert len(lat.order.covers()) == 2

    def test_two_antichain_gives_boolean_square(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        assert len(lat) == 4
        assert lat.meet("{a}", "{b}") == "{}"
        assert lat.join("{a}", "{b}") == "{a,b}"

    def test_empty_poset_gives_one_element_lattice(self):
        lat = ideal_lattice(build_poset([], []))
        assert len(lat) == 1
        assert lat.bot == lat.top == "{}"

    def test_meet_join_are_intersection_union(self):
        rng = random.Random(31)
        for _ in range(10):
            base = random_poset(rng, rng.randrange(0, 6))
            lat = ideal_lattice(base)
            for i, x in enumerate(lat.elements):
                for j, y in enumerate(lat.elements):
                    mi, mj = lat.element_masks[i], lat.element_masks[j]
                    assert lat.element_masks[lat.index(lat.meet(x, y))] == mi & mj
                    assert lat.element_masks[lat.index(lat.join(x, y))] == mi | mj

    def test_order_is_inclusion(self):
        # the order built over covers against the pairwise inclusion scan
        rng = random.Random(37)
        bases = [p for n in range(5) for p in labeled_posets(n)]
        bases += [random_poset(rng, rng.randrange(0, 10)) for _ in range(100)]
        bases.append(build_poset([f"a{k}" for k in range(8)], []))
        for base in bases:
            lat = ideal_lattice(base)
            assert list(lat.elements) == sorted(lat.elements)
            assert list(lat.order.up_masks) == inclusion_rows(lat.element_masks)
            assert list(lat.order.down_masks) == transpose_masks(lat.order.up_masks)
            gen = lat.order.gen_masks
            pairs = [(x, lat.elements[j]) for i, x in enumerate(lat.elements) for j in bits(gen[i])]
            assert build_poset(list(lat.elements), pairs) == lat.order

    def test_walk_covers_match_the_complement_scan(self):
        # covers read off the walk's minimal elements against the old
        # construction, which scans each complement against the down-sets
        rng = random.Random(43)
        shapes = [(list(p.elements), p.covers()) for n in range(6) for p in labeled_posets(n)]
        for _ in range(60):
            p = random_poset(rng, rng.randrange(0, 10))
            rename = dict(zip(p.elements, reversed(p.elements)))
            shapes.append((list(p.elements), p.covers()))
            shapes.append((list(p.elements), [(rename[x], rename[y]) for x, y in p.covers()]))
        for elements, pairs in shapes:
            base = build_poset(elements, pairs)
            lat = ideal_lattice(base)
            assert base._down_masks is None
            old = complement_scan_ideal_lattice(base)
            assert lat == old
            assert (lat.order.elements, lat.order.gen_masks, lat.order.order) == (old.order.elements, old.order.gen_masks, old.order.order)
            assert lat.element_masks == old.element_masks and lat.ideal_base is old.ideal_base

    def test_size_bound_exceeded(self):
        anti = build_poset([f"a{k}" for k in range(5)], [])
        with pytest.raises(SizeBoundExceeded):
            ideal_lattice(anti, max_size=31)


class TestJoinIrreducibles:
    def test_three_chain(self, three_chain):
        lat = lattice_from_order(three_chain)
        irr = join_irreducibles(lat)
        assert irr.elements == ("1", "m")
        assert irr.leq("m", "1")

    def test_boolean_square_atoms(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        irr = join_irreducibles(lat)
        assert set(irr.elements) == {"{a}", "{b}"}
        assert not irr.leq("{a}", "{b}") and not irr.leq("{b}", "{a}")

    def test_one_element_lattice_has_none(self):
        lat = ideal_lattice(build_poset([], []))
        assert len(join_irreducibles(lat)) == 0

    def test_matches_definitional_scan(self):
        rng = random.Random(37)
        for _ in range(15):
            ideals = ideal_lattice(random_poset(rng, rng.randrange(0, 6)))
            for lat in (ideals, lattice_from_order(ideals.order)):
                assert sorted(join_irreducibles(lat).elements) == brute_join_irreducibles(lat)


def _irreducible_indices(order):
    """Elements whose strict down-set has exactly one maximal element."""
    up, down = order.up_masks, order.down_masks
    out = []
    for x in range(len(order)):
        below = down[x] ^ (1 << x)
        if sum(1 for m in bits(below) if up[m] & below == 1 << m) == 1:
            out.append(x)
    return out


def _assert_same_poset(got, expected):
    assert got.elements == expected.elements
    assert got.up_masks == expected.up_masks
    assert got.down_masks == expected.down_masks


def _upper_covers(poset):
    """Per element, the mask of the elements that cover it, by definition."""
    up = poset.up_masks
    out = []
    for x in range(len(poset)):
        above = up[x] ^ (1 << x)
        out.append(sum(1 << y for y in bits(above) if not any(up[z] >> y & 1 for z in bits(above ^ (1 << y)))))
    return out


class TestIrreduciblesAgainstRestriction:
    """J(L), closed from generators, against the restriction of the order."""

    def _check_birkhoff(self, order):
        rep = _birkhoff(order)
        if rep is None:
            return False
        _assert_same_poset(rep[0], restrict(order, _irreducible_indices(order)))
        assert_generated(rep[0])
        assert list(rep[0].gen_masks) == _upper_covers(rep[0])
        return True

    def _check_join_irreducibles(self, lat):
        irr = join_irreducibles(lat)
        _assert_same_poset(irr, restrict(lat.order, _irreducible_indices(lat.order)))
        assert_generated(irr)
        elems = [lat.ideal_index(down) for down in lat.ideal_base.down_masks]
        return elems != sorted(elems)

    def test_bounded_distributive_orders_of_labeled_posets(self):
        orders = [p for n in range(1, 6) for p in labeled_posets(n)]
        orders += [_bounded(p) for n in range(6) for p in labeled_posets(n)]
        accepted = 0
        for order in orders:
            if self._check_birkhoff(order):
                accepted += 1
                self._check_join_irreducibles(lattice_from_order(order))
        assert 0 < accepted < len(orders)

    def test_random_ideal_lattice_orders(self):
        # ideal names such as "{e01,e03}" and "{e03}" sort apart from their
        # base points, which takes the relabelling in join_irreducibles
        rng = random.Random(103)
        unsorted = 0
        for _ in range(300):
            lat = ideal_lattice(random_poset(rng, rng.randrange(0, 7)))
            assert self._check_birkhoff(lat.order)
            unsorted += self._check_join_irreducibles(lat)
            assert not self._check_join_irreducibles(lattice_from_order(lat.order))
        assert unsorted > 0


class TestIrreduciblesWithoutRelabelling:
    """Differential: _irreducibles, which returns the ideal base of a
    lattice read from an order as it is, against the relabelling of the
    base by each point's closed down-set."""

    def test_seeded_ideal_lattices_with_shuffled_and_reversed_names(self):
        rng = random.Random(179)
        for _ in range(150):
            ideals = ideal_lattice(random_poset(rng, rng.randrange(0, 7)))
            irr, pos = _irreducibles(ideals)
            ref_irr, ref_pos = relabelled_irreducibles(ideals)
            assert (irr.elements, irr.gen_masks, irr.order, list(pos)) == (
                ref_irr.elements, ref_irr.gen_masks, ref_irr.order, list(ref_pos)
            )
            for naming in ("shuffled", "reversed"):
                rename = fresh_names(ideals.order, rng, naming, "L")
                lat = lattice_from_order(build_poset(
                    sorted(rename.values()), [(rename[x], rename[y]) for x, y in ideals.order.covers()]
                ))
                irr, pos = _irreducibles(lat)
                assert irr is lat.ideal_base and lat.ideal_base._down_masks is None
                ref_irr, ref_pos = relabelled_irreducibles(lat)
                assert (irr.elements, irr.gen_masks, irr.order, list(pos)) == (
                    ref_irr.elements, ref_irr.gen_masks, ref_irr.order, ref_pos
                )
                assert irr == ref_irr


class TestIrreduciblesAreGeneratedByCovers:
    def test_generators_are_the_cover_relation(self):
        # J(L) found while validating an order is generated by its covers;
        # an ideal lattice's J(L) takes the base's generators, here covers
        rng = random.Random(127)
        for _ in range(150):
            p = random_poset(rng, rng.randrange(0, 7))
            ideals = ideal_lattice(build_poset(list(p.elements), p.covers()))
            for lat in (ideals, lattice_from_order(ideals.order)):
                irr = join_irreducibles(lat)
                assert list(irr.gen_masks) == _upper_covers(irr)


class TestEveryConstructorGenerates:
    def test_strict_generators_close_to_the_order(self):
        rng = random.Random(107)
        quotients = 0
        for _ in range(100):
            base = random_poset(rng, rng.randrange(0, 7))
            lat = ideal_lattice(base)
            posets = [base, lat.order, join_irreducibles(lat), join_irreducibles(lattice_from_order(lat.order))]
            n = len(base)
            for phi in (
                random_monotone_between(rng, base, base),
                MonotoneMap(base, base, [rng.randrange(n) for _ in range(n)]),
            ):
                posets.append(coequalizer_general(phi).class_poset)
                try:
                    posets.append(phi_components(phi).class_poset)
                    quotients += 1
                except QuotientNotAntisymmetric:
                    pass
            for p in posets:
                assert_generated(p)
        assert quotients > 100


class TestBirkhoffEta:
    def test_three_chain_frozen(self, three_chain):
        lat = lattice_from_order(three_chain)
        eta = birkhoff_eta(lat)
        assert {k: set(v.members) for k, v in eta.items()} == {
            "0": set(),
            "m": {"m"},
            "1": {"m", "1"},
        }

    def test_boolean_square_frozen(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        eta = birkhoff_eta(lat)
        assert set(eta["{a}"].members) == {"{a}"}
        assert set(eta["{a,b}"].members) == {"{a}", "{b}"}
        assert eta["{}"].members == ()

    def test_isomorphism_on_small_lattices(self):
        rng = random.Random(41)
        lattices = []
        for _ in range(10):
            ideals = ideal_lattice(random_poset(rng, rng.randrange(0, 6)))
            lattices += [ideals, lattice_from_order(ideals.order)]
        for lat in lattices:
            eta = birkhoff_eta(lat)
            masks = {v.mask for v in eta.values()}
            assert len(masks) == len(lat)
            for x in lat:
                for y in lat:
                    assert eta[lat.meet(x, y)].mask == eta[x].mask & eta[y].mask
                    assert eta[lat.join(x, y)].mask == eta[x].mask | eta[y].mask
                    assert lat.leq(x, y) == (eta[x].mask & ~eta[y].mask == 0)
            assert eta[lat.bot].mask == 0
            assert len(eta[lat.top]) == len(join_irreducibles(lat))


class TestDualityOfObjects:
    def test_irreducibles_of_ideal_lattice_recover_the_poset(self):
        # exhaustive on small posets: x -> principal ideal is an isomorphism
        for p in noniso_posets_upto(6):
            lat = ideal_lattice(p)
            irr = join_irreducibles(lat)
            names = {x: down_set(p, x).name for x in p}
            assert sorted(names.values()) == sorted(irr.elements)
            for x in p:
                for y in p:
                    assert p.leq(x, y) == irr.leq(names[x], names[y])

    def test_ideals_of_irreducibles_recover_the_lattice(self):
        # posets up to size 6 keep the lattices within 64 elements
        rng = random.Random(43)
        for _ in range(10):
            lat = ideal_lattice(random_poset(rng, rng.randrange(0, 7)))
            irr = join_irreducibles(lat)
            again = ideal_lattice(irr)
            eta = birkhoff_eta(lat)
            # eta renames lat onto again; check it transports the structure
            rename = {x: again.elements[again.ideal_index(eta[x].mask)] for x in lat}
            assert sorted(rename.values()) == sorted(again.elements)
            for x in lat:
                for y in lat:
                    assert rename[lat.meet(x, y)] == again.meet(rename[x], rename[y])
                    assert rename[lat.join(x, y)] == again.join(rename[x], rename[y])


class TestIsHomomorphism:
    def test_identity_valid(self, three_chain):
        lat = lattice_from_order(three_chain)
        hom = is_homomorphism({x: x for x in lat}, lat, lat)
        assert hom == LatticeHom.identity(lat)

    def test_three_chain_collapse_valid(self, two_chain):
        lat = ideal_lattice(two_chain)
        hom = is_homomorphism(
            {"{}": "{}", "{p}": "{}", "{p,q}": "{p,q}"}, lat, lat
        )
        assert hom("{p}") == "{}"

    def test_boolean_square_join_violation(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        with pytest.raises(NotHom) as exc:
            is_homomorphism(
                {"{}": "{}", "{a}": "{}", "{b}": "{}", "{a,b}": "{a,b}"}, lat, lat
            )
        assert exc.value.payload["law"] == "join"
        assert exc.value.payload["witness"] == ["{a}", "{b}"]

    def test_bot_top_violations(self, three_chain):
        lat = lattice_from_order(three_chain)
        with pytest.raises(NotHom) as exc:
            is_homomorphism({"0": "m", "m": "m", "1": "1"}, lat, lat)
        assert exc.value.payload["law"] == "bot"
        with pytest.raises(NotHom) as exc:
            is_homomorphism({"0": "0", "m": "0", "1": "m"}, lat, lat)
        assert exc.value.payload["law"] == "top"

    def test_partial_table_rejected(self, three_chain):
        lat = lattice_from_order(three_chain)
        with pytest.raises(UnknownElement):
            is_homomorphism({"0": "0"}, lat, lat)

    def test_table_map_behaviour_matches_monotone_maps(self, three_chain):
        lat = lattice_from_order(three_chain)
        hom = is_homomorphism({"0": "0", "m": "0", "1": "1"}, lat, lat)
        assert type(hom.after(hom)) is LatticeHom and hom.after(hom) == hom
        assert repr(hom) == "LatticeHom({'0': '0', '1': '1', 'm': '0'})"
        phi = unchecked(MonotoneMap, hom.table, three_chain, three_chain)
        assert repr(phi) == "MonotoneMap({'0': '0', '1': '1', 'm': '0'})"
        assert phi.image == hom.image and phi != hom and hom != phi
        assert hash(phi) == hash(MonotoneMap(three_chain, three_chain, hom.image))
        with pytest.raises(TypeError):
            hash(hom)
        with pytest.raises(UnknownElement):
            unchecked(LatticeHom, {"0": "0", "zz": "0"}, lat, lat)

    def test_unchecked_bypass_skips_laws(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        hom = unchecked(
            LatticeHom, {"{}": "{}", "{a}": "{}", "{b}": "{}", "{a,b}": "{a,b}"}, lat, lat
        )
        assert hom("{a}") == "{}"


def _bounded(poset):
    """The poset with a new bottom "0" and top "1" added."""
    ids = list(poset.elements)
    pairs = [(x, y) for x in ids for y in ids if x != y and poset.leq(x, y)]
    pairs += [("0", x) for x in ids] + [(x, "1") for x in ids] + [("0", "1")]
    return build_poset(["0", "1"] + ids, pairs)


def _pair_scan_accepts(image, domain, codomain):
    try:
        _raise_hom_witness(image, domain, codomain)
    except NotHom:
        return False
    return True


def _witness(scan, order):
    """The exception class and args a witness scan raises, or None."""
    try:
        scan(order)
    except (NotALattice, NotDistributive) as exc:
        return type(exc), exc.args
    return None


class TestBirkhoffAcceptAgainstScans:
    """Differential: the Birkhoff accept against the pair and triple scans,
    and the row-pruned scans against the table-based oracle."""

    def _check(self, order):
        """The class of the witness raised, None when accepted."""
        witness = _witness(_raise_lattice_witness, order)
        assert witness == _witness(brute_lattice_witness, order), order.elements
        rep = _birkhoff(order)
        assert (rep is not None) == (witness is None), order.elements
        if rep is None:
            return witness[0]
        lat = lattice_from_order(order)
        down, up = order.down_masks, order.up_masks
        for i in range(len(order)):
            for j in range(len(order)):
                assert down[lat.meet_idx(i, j)] == down[i] & down[j]
                assert up[lat.join_idx(i, j)] == up[i] & up[j]
        return None

    def test_every_bounded_poset_up_to_seven_elements(self):
        outcomes = [self._check(_bounded(inner)) for n in range(6) for inner in labeled_posets(n)]
        assert len(outcomes) == 4474
        assert 0 < outcomes.count(None) < len(outcomes)
        assert set(outcomes) == {None, NotALattice, NotDistributive}

    def test_random_bounded_posets(self):
        rng = random.Random(89)
        outcomes = [self._check(_bounded(random_poset(rng, rng.randrange(0, 8)))) for _ in range(300)]
        assert 0 < outcomes.count(None) < 300

    def test_ideal_lattice_orders_are_accepted(self):
        rng = random.Random(97)
        for _ in range(30):
            assert self._check(ideal_lattice(random_poset(rng, rng.randrange(0, 7))).order) is None


def _same_birkhoff(order):
    """Whether _birkhoff accepts the order, after asserting that it agrees
    with the closure-based oracle: both None, or the same J, elements and
    generators, and the same masks."""
    got, expected = _birkhoff(order), closure_birkhoff(order)
    assert (got is None) == (expected is None), order.elements
    if got is None:
        return False
    assert got[0].elements == expected[0].elements, order.elements
    assert got[0].gen_masks == expected[0].gen_masks, order.elements
    assert got[1] == expected[1], order.elements
    return True


class TestBirkhoffAgainstClosureOracle:
    """Differential: the cover-based Birkhoff check against the closure
    check with its ideal count."""

    def test_every_labeled_poset_up_to_five_elements(self):
        # labeled_posets generate from every strict relation; rebuilt from
        # the covers alone they give the same order
        orders = [p for n in range(6) for p in labeled_posets(n)]
        accepted = [_same_birkhoff(p) for p in orders]
        assert accepted == [_same_birkhoff(build_poset(list(p.elements), p.covers())) for p in orders]
        assert 0 < sum(accepted) < len(orders)

    def test_every_bounded_labeled_poset_up_to_seven_elements(self):
        accepted = [_same_birkhoff(_bounded(p)) for n in range(6) for p in labeled_posets(n)]
        assert 0 < sum(accepted) < len(accepted) == 4474

    def test_ideal_lattices_renamed_with_redundant_edges(self):
        rng = random.Random(211)
        redundant = 0
        for k in range(320):
            order = _renamed(ideal_lattice(random_poset(rng, rng.randrange(0, 7))).order, rng, k % 2 == 1)
            pairs = order.covers()
            strict = [(x, y) for x in order for y in order if x != y and order.leq(x, y) and (x, y) not in pairs]
            extra = rng.sample(strict, min(len(strict), rng.randrange(1, 4)))
            redundant += bool(extra)
            pairs += extra
            rng.shuffle(pairs)
            assert _same_birkhoff(build_poset(list(order.elements), pairs))
        assert redundant > 200


class TestFastHomAcceptAgainstPairScan:
    """Differential: the fast hom accept against the pair scan."""

    @staticmethod
    def _lattices():
        out = []
        for p in noniso_posets_upto(3):
            lat = ideal_lattice(p)
            if len(lat) <= 6:
                out += [lat, lattice_from_order(lat.order)]
        return out

    def test_every_bot_top_preserving_table_of_small_lattices(self):
        accepted = checked = 0
        lattices = self._lattices()
        for dom in lattices:
            for cod in lattices:
                inner = [i for i in range(len(dom)) if i not in (dom.bot_idx, dom.top_idx)]
                for choice in product(range(len(cod)), repeat=len(inner)):
                    image = [0] * len(dom)
                    image[dom.bot_idx], image[dom.top_idx] = cod.bot_idx, cod.top_idx
                    for i, c in zip(inner, choice):
                        image[i] = c
                    if image[dom.bot_idx] != cod.bot_idx:
                        continue  # a one-element domain into a larger codomain
                    fast = _preserves_laws(image, dom, cod) is not None
                    assert fast == _pair_scan_accepts(image, dom, cod)
                    accepted += fast
                    checked += 1
        assert 0 < accepted < checked

    def test_random_monotone_and_random_tables(self):
        rng = random.Random(101)
        for _ in range(200):
            dom = ideal_lattice(random_poset(rng, rng.randrange(0, 5)))
            cod = ideal_lattice(random_poset(rng, rng.randrange(0, 5)))
            if rng.random() < 0.5:
                dom = lattice_from_order(dom.order)
            for image in (
                list(random_monotone_between(rng, dom.order, cod.order).image),
                [rng.randrange(len(cod)) for _ in range(len(dom))],
            ):
                image[dom.bot_idx], image[dom.top_idx] = cod.bot_idx, cod.top_idx
                if image[dom.bot_idx] != cod.bot_idx:
                    continue  # a one-element domain into a larger codomain
                assert (_preserves_laws(image, dom, cod) is not None) == _pair_scan_accepts(image, dom, cod)


def _ordinal_sum(parts, rng):
    """The orders stacked bottom to top, each maximal element below each
    minimal element of the next, renamed to shuffled identifiers."""
    names = [f"v{k:03d}" for k in range(sum(len(p) for p in parts))]
    rng.shuffle(names)
    pairs = []
    offset = 0
    prev_top = []
    for p in parts:
        rename = {x: names[offset + i] for i, x in enumerate(p.elements)}
        pairs += [(rename[x], rename[y]) for x, y in p.covers()]
        bottoms = [rename[x] for i, x in enumerate(p.elements) if p.down_masks[i] == 1 << i]
        pairs += [(t, b) for t in prev_top for b in bottoms]
        prev_top = [rename[x] for i, x in enumerate(p.elements) if p.up_masks[i] == 1 << i]
        offset += len(p)
    return build_poset(names, pairs)


def _renamed(order, rng, against_order):
    """The order under fresh names: shuffled, or with every element named
    before everything below it, so that identifier order runs against the
    order."""
    fresh = [f"w{k:03d}" for k in range(len(order))]
    if against_order:
        ranked = sorted(range(len(order)), key=lambda i: -order.down_masks[i].bit_count())
    else:
        ranked = range(len(order))
        rng.shuffle(fresh)
    rename = {order.elements[i]: fresh[k] for k, i in enumerate(ranked)}
    return build_poset(fresh, [(rename[x], rename[y]) for x, y in order.covers()])


def _chain(n):
    return build_poset([f"k{i}" for i in range(n)], [(f"k{i}", f"k{i + 1}") for i in range(n - 1)])


def _induced_image(lat, phi):
    """The image of the hom whose dual is ``phi``, a monotone self-map of
    the base given by its image indices: each ideal goes to its preimage."""
    out = []
    for mask in lat.element_masks:
        out.append(lat.ideal_index(sum(1 << y for y, x in enumerate(phi) if mask >> x & 1)))
    return out


def _hom_outcome(table, dom, cod):
    """None when is_homomorphism accepts the table, else the NotHom law and
    witness."""
    try:
        is_homomorphism(table, dom, cod)
    except NotHom as exc:
        return exc.payload["law"], exc.payload["witness"]
    return None


def _climbing_decides(image, domain, codomain):
    """_preserves_laws with the climbing oracle's verdict: the real dual
    when the oracle accepts, None when it rejects."""
    return _preserves_laws(image, domain, codomain) if climbing_preserves_laws(image, domain, codomain) else None


class TestDualHomAcceptAgainstClimbingOracle:
    """Differential: the accept by the dual map against the climbing check
    it replaced and against the pair scan, on chains and ordinal sums under
    shuffled names and names that run against the order, and on tables that
    keep bottom and top but break only meets or only joins."""

    @staticmethod
    def _lattices(rng):
        orders = [ideal_lattice(build_poset(["a", "b"], [])).order]
        orders += [ideal_lattice(_chain(n)).order for n in (1, 2, 4, 7)]
        for _ in range(8):
            parts = [ideal_lattice(random_poset(rng, rng.randrange(0, 4))).order for _ in range(rng.randrange(2, 4))]
            orders.append(_ordinal_sum(parts, rng))
        return [lattice_from_order(_renamed(order, rng, against)) for order in orders for against in (False, True)]

    @staticmethod
    def _images(lat, rng):
        n, bot, top = len(lat), lat.bot_idx, lat.top_idx
        base = lat.ideal_base
        images = [list(range(n)), [bot if a == bot else top for a in range(n)], [top if a == top else bot for a in range(n)]]
        for _ in range(3):
            induced = _induced_image(lat, random_monotone_between(rng, base, base).image)
            images.append(induced)
            inner = [a for a in range(n) if a not in (bot, top)]
            if inner:
                changed = list(induced)
                changed[rng.choice(inner)] = rng.randrange(n)
                images.append(changed)
                shuffled = [rng.randrange(n) for _ in range(n)]
                shuffled[bot], shuffled[top] = bot, top
                images.append(shuffled)
        return images

    def test_chains_and_ordinal_sums(self, monkeypatch):
        rng = random.Random(137)
        outcomes = set()
        for lat in self._lattices(rng):
            for image in self._images(lat, rng):
                accepted = _preserves_laws(image, lat, lat) is not None
                assert accepted == climbing_preserves_laws(image, lat, lat) == _pair_scan_accepts(image, lat, lat)
                table = {x: lat.elements[i] for x, i in zip(lat.elements, image)}
                got = _hom_outcome(table, lat, lat)
                with monkeypatch.context() as patch:
                    # the climbing oracle decides; an accept keeps the dual
                    # that is_homomorphism stores
                    patch.setattr("dualfix.lattice._preserves_laws", _climbing_decides)
                    assert got == _hom_outcome(table, lat, lat)
                outcomes.add(None if got is None else got[0])
        assert outcomes == {None, "meet", "join"}

    def test_boolean_square_breaks_one_law(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        for middle, law in (("{a,b}", "meet"), ("{}", "join")):
            table = {"{}": "{}", "{a}": middle, "{b}": middle, "{a,b}": "{a,b}"}
            image = [lat.index(table[x]) for x in lat.elements]
            assert _preserves_laws(image, lat, lat) is None and not climbing_preserves_laws(image, lat, lat)
            with pytest.raises(NotHom) as exc:
                is_homomorphism(table, lat, lat)
            assert exc.value.payload["law"] == law


def test_accepting_a_lattice_leaves_its_base_unclosed():
    # _birkhoff accepts from the covers and J's masks alone, so it closes
    # neither J nor an order given by its covers: an ideal lattice is
    # graded, so its covers come off the heights without a closure.
    rng = random.Random(149)
    for _ in range(30):
        p = random_poset(rng, rng.randrange(0, 7))
        order = ideal_lattice(p).order
        given = build_poset(list(order.elements), order.covers())
        lat = lattice_from_order(given)
        assert lat.ideal_base._up_masks is None and lat.ideal_base._down_masks is None
        assert given._up_masks is None and given._down_masks is None


def test_hom_validation_reads_no_base_up_sets():
    base = random_poset(random.Random(139), 6)
    lat = ideal_lattice(base)
    is_homomorphism({x: x for x in lat.elements}, lat, lat)
    assert base._up_masks is None


M3 = build_poset(["0", "a", "b", "c", "1"], [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
N5 = build_poset(["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


class TestWitnessScanAgainstTables:
    """Differential: the pruned witness scans against the n×n tables on
    non-distributive lattices whose skipped rows come first."""

    def test_gadgets_above_below_and_between_ideal_lattices(self):
        # the ideal lattices' rows are skipped; shuffled names put some of
        # them before the gadget's rows, and names that run against the
        # order put the gadget's rows before the rows below it
        skipped_first = 0
        for seed in (131, 163, 173, 181, 191):
            rng = random.Random(seed)
            for _ in range(12):
                lo = ideal_lattice(random_poset(rng, rng.randrange(1, 5))).order
                hi = ideal_lattice(random_poset(rng, rng.randrange(1, 5))).order
                for gadget in (M3, N5):
                    for parts in ([lo, gadget], [gadget, lo], [lo, gadget, hi]):
                        shuffled = _ordinal_sum(parts, rng)
                        for order in (shuffled, _renamed(shuffled, rng, True)):
                            got = _witness(_raise_lattice_witness, order)
                            assert got is not None and got[0] is NotDistributive
                            assert got == _witness(brute_lattice_witness, order)
                            assert _birkhoff(order) is None
                            nonprime = _nonprime_irreducibles(order, {d: k for k, d in enumerate(order.down_masks)})
                            skipped_first += not order.down_masks[0] & nonprime
        assert skipped_first > 0


def _brute_join(order, b, c):
    ups = order.up_masks[b] & order.up_masks[c]
    return next(u for u in bits(ups) if ups & ~order.up_masks[u] == 0)


def _brute_meet(order, b, c):
    downs = order.down_masks[b] & order.down_masks[c]
    return next(m for m in bits(downs) if downs & ~order.down_masks[m] == 0)


class TestRowPruneLemma:
    """On every lattice among the bounded posets of at most seven elements:
    the flagged irreducibles are exactly those that are not join-prime, and
    no skipped row holds a failing triple."""

    def test_bounded_lattices_up_to_seven_elements(self):
        lattices = skipped = flagged = 0
        for n in range(6):
            for inner in labeled_posets(n):
                order = _bounded(inner)
                if (_witness(brute_lattice_witness, order) or (None,))[0] is NotALattice:
                    continue
                lattices += 1
                m = len(order)
                up, down = order.up_masks, order.down_masks
                join = [[_brute_join(order, b, c) for c in range(m)] for b in range(m)]
                meet = [[_brute_meet(order, b, c) for c in range(m)] for b in range(m)]
                nonprime = _nonprime_irreducibles(order, {d: k for k, d in enumerate(down)})
                irreducible = _irreducible_indices(order)
                assert nonprime & ~sum(1 << j for j in irreducible) == 0
                for j in irreducible:
                    outside = [b for b in range(m) if not up[j] >> b & 1]
                    splits = any(up[j] >> join[b][c] & 1 for b in outside for c in outside)
                    assert bool(nonprime >> j & 1) == splits
                flagged += nonprime.bit_count()
                for a in range(m):
                    if down[a] & nonprime:
                        continue
                    skipped += 1
                    for b in range(m):
                        for c in range(m):
                            assert meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
        assert lattices > 0 and skipped > 0 and flagged > 0


def _brute_failing_triples(order):
    """Every (a, b, c) of a lattice where a ∧ (b ∨ c) ≠ (a ∧ b) ∨ (a ∧ c),
    read off the brute tables."""
    m = len(order)
    join = [[_brute_join(order, b, c) for c in range(m)] for b in range(m)]
    meet = [[_brute_meet(order, b, c) for c in range(m)] for b in range(m)]
    return {
        (a, b, c)
        for a in range(m)
        for b in range(m)
        for c in range(m)
        if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]
    }


class TestWitnessPruneLemmas:
    """On every bounded poset of at most seven elements: the meet pass over
    the meet-irreducibles recognises exactly the lattices, and on every
    lattice the pruned triple scan yields exactly the failing triples of
    the brute tables, in identifier order."""

    def test_bounded_posets_up_to_seven_elements(self):
        lattices = failing = 0
        for n in range(6):
            for inner in labeled_posets(n):
                order = _bounded(inner)
                up, down = order.up_masks, order.down_masks
                by_down = {d: k for k, d in enumerate(down)}
                is_lattice = (_witness(brute_lattice_witness, order) or (None,))[0] is not NotALattice
                assert _is_lattice(order, by_down, {u: k for k, u in enumerate(up)}) == is_lattice
                if not is_lattice:
                    continue
                lattices += 1
                by_up = {u: k for k, u in enumerate(up)}
                got = [(a, b, c) for a, b, cs in _failing_triples(order, by_down, by_up) for c in cs]
                assert got == sorted(_brute_failing_triples(order))
                failing += len(got)
        assert lattices > 0 and failing > 0

    def test_random_bounded_posets_of_up_to_eleven_elements(self):
        rng = random.Random(199)
        outcomes = set()
        for _ in range(300):
            order = _bounded(random_poset(rng, rng.randrange(0, 10)))
            witness = _witness(brute_lattice_witness, order)
            by_down = {d: k for k, d in enumerate(order.down_masks)}
            by_up = {u: k for k, u in enumerate(order.up_masks)}
            assert _is_lattice(order, by_down, by_up) == ((witness or (None,))[0] is not NotALattice)
            assert _witness(_raise_lattice_witness, order) == witness
            outcomes.add(witness and witness[0])
        assert outcomes == {None, NotALattice, NotDistributive}


class TestNotALatticeAgainstTables:
    """Differential: the NotALattice path against the table-based oracle on
    orders that a local check or a meet check alone does not reject."""

    def test_order_that_fails_only_the_ideal_count(self):
        # u and v have no greatest lower bound, yet the only minimal element
        # is least and every element with two lower covers is their least
        # upper bound, so a closure-based check rejects it only by the count
        # of ideals; _birkhoff rejects it by the masks of u's lower covers
        # k1 and k2, each two points smaller than u's, not one
        covers = [("0", "x"), ("0", "y"), ("x", "k1"), ("x", "k3"), ("y", "k2"), ("y", "k4")]
        covers += [("k1", "u"), ("k2", "u"), ("k3", "v"), ("k4", "v"), ("u", "1"), ("v", "1")]
        order = build_poset(["0", "1", "x", "y", "k1", "k2", "k3", "k4", "u", "v"], covers)
        up, down = order.up_masks, order.down_masks
        lower = [0] * len(order)
        for lo, hi in covers:
            lower[order.index(hi)] |= 1 << order.index(lo)
        assert [a for a in range(len(order)) if down[a] == 1 << a] == [order.index("0")]
        for a in range(len(order)):
            if lower[a].bit_count() > 1:
                common = (1 << len(order)) - 1
                for c in bits(lower[a]):
                    common &= up[c]
                assert common == up[a]
        assert _birkhoff(order) is None
        assert not _is_lattice(order, {d: k for k, d in enumerate(down)}, {u: k for k, u in enumerate(up)})
        got = _witness(_raise_lattice_witness, order)
        assert got == _witness(brute_lattice_witness, order)
        assert got[0] is NotALattice

    def test_order_with_every_meet_and_two_maximal_elements(self):
        # every two elements have a greatest lower bound, but b and c have
        # no upper bound, so the witness is a pair without a least one
        order = build_poset(["0", "a", "b", "c"], [("0", "a"), ("a", "c"), ("0", "b")])
        down = order.down_masks
        by_down = {d: k for k, d in enumerate(down)}
        assert all(dx & dy in by_down for dx in down for dy in down)
        assert not _is_lattice(order, by_down, {u: k for k, u in enumerate(order.up_masks)})
        got = _witness(_raise_lattice_witness, order)
        assert got == _witness(brute_lattice_witness, order)
        assert got == (NotALattice, ("'a', 'b' have no least upper bound",))


def _m3_with_boolean(k, below):
    """An M3 named z0 za zb zc zt and the Boolean lattice 2^k, whose
    elements are named by bit strings that sort first.  Below: zt lies
    under the Boolean bottom (2^k + 5 elements).  Above: z0 is the
    Boolean top (2^k + 4 elements)."""
    names = [f"b{m:0{k}b}" for m in range(1 << k)]
    pairs = [(names[m], names[m | 1 << i]) for m in range(1 << k) for i in range(k) if not m >> i & 1]
    if below:
        pairs.append(("zt", names[0]))
    else:
        pairs = [(x, "z0" if y == names[-1] else y) for x, y in pairs]
        names.pop()
    pairs += [(p, q) for x in ("za", "zb", "zc") for p, q in (("z0", x), (x, "zt"))]
    return build_poset(names + ["z0", "za", "zb", "zc", "zt"], pairs)


class TestWitnessAtScale:
    """An M3 below or above a Boolean lattice, with the M3's names last,
    rejects with the witness (za, zb, zc) in closed form.

    By the lemma of :func:`_failing_triples`, a failing triple (a, b, c)
    has a join-irreducible j ≤ a that is not join-prime with j ≰ b, j ≰ c
    and j ≤ b ∨ c.  Only the atoms za, zb, zc of the M3 are such j.  Every
    element other than the atoms is above j or at most z0, and a join of
    elements at most z0 and atoms other than j does not reach j; so b and c
    are the two atoms other than j, and b ∨ c is zt.  If a is above b and
    c, both sides are b ∨ c, so a is an atom above j: a is j.  The failing
    triples are the six orderings of (za, zb, zc): every Boolean row holds
    none, and in row za the first failing pair is (zb, zc).  The pruned
    scan takes at most three b per row, where the full scan takes n.
    """

    @pytest.mark.parametrize("k, below, n", [(8, True, 261), (10, False, 1028)])
    def test_m3_and_boolean(self, k, below, n):
        order = _m3_with_boolean(k, below)
        assert len(order) == n
        with pytest.raises(NotDistributive) as exc:
            lattice_from_order(order)
        assert exc.value.payload["witness"] == ["za", "zb", "zc"]
        by_down = {d: i for i, d in enumerate(order.down_masks)}
        by_up = {u: i for i, u in enumerate(order.up_masks)}
        assert _nonprime_irreducibles(order, by_down) == sum(1 << order.index(x) for x in ("za", "zb", "zc"))
        rows = [(a, b, list(cs)) for a, b, cs in _failing_triples(order, by_down, by_up)]
        assert len(rows) <= 3 * n
        failing = [tuple(order.elements[i] for i in (a, b, c)) for a, b, cs in rows for c in cs]
        assert failing == sorted(permutations(["za", "zb", "zc"]))


def _small_distributive_lattices():
    """Every distributive lattice of at most five elements, as the ideal
    lattice of a poset and as read from that lattice's order."""
    out = []
    for p in noniso_posets_upto(4):
        lat = ideal_lattice(p)
        if len(lat) <= 5:
            out += [lat, lattice_from_order(lat.order)]
    return out


class TestHomCheckByTwoCovers:
    """Differential: the hom check on each element's two lowest lower
    covers against the push along the generating edges that it replaced,
    the climbing check and the pair scan."""

    def test_every_table_between_distributive_lattices_of_at_most_five_elements(self):
        lattices = _small_distributive_lattices()
        assert len(lattices) == 16
        accepted = checked = 0
        for dom in lattices:
            for cod in lattices:
                inner = [i for i in range(len(dom)) if i not in (dom.bot_idx, dom.top_idx)]
                for choice in product(range(len(cod)), repeat=len(inner)):
                    image = [0] * len(dom)
                    image[dom.bot_idx], image[dom.top_idx] = cod.bot_idx, cod.top_idx
                    for i, c in zip(inner, choice):
                        image[i] = c
                    if image[dom.bot_idx] != cod.bot_idx:
                        continue  # a one-element domain into a larger codomain
                    least = _preserves_laws(image, dom, cod)
                    assert least == push_preserves_laws(image, dom, cod)
                    verdict = least is not None
                    assert verdict == climbing_preserves_laws(image, dom, cod) == _pair_scan_accepts(image, dom, cod)
                    if verdict:
                        table = {x: cod.elements[c] for x, c in zip(dom.elements, image)}
                        hom = is_homomorphism(table, dom, cod)
                        assert list(hom.dual.image) == least
                        assert (hom.dual.domain, hom.dual.codomain) == (cod.ideal_base, dom.ideal_base)
                    accepted += verdict
                    checked += 1
        assert 0 < accepted < checked

    def test_every_constructor_keeps_the_principal_elements_and_two_lowest_covers(self):
        rng = random.Random(223)
        for _ in range(120):
            base = random_poset(rng, rng.randrange(0, 7))
            lat = ideal_lattice(base)
            old = complement_scan_ideal_lattice(base)
            assert (lat.principal, lat.first_lower, lat.second_lower) == (
                old.principal, old.first_lower, old.second_lower
            )
            for order in (lat.order, _renamed(lat.order, rng, True)):
                read = lattice_from_order(order)
                lower, _ = climbing_cover_masks(order)
                assert list(read.principal) == [a for a in range(len(order)) if lower[a].bit_count() == 1]
                assert (list(read.first_lower), list(read.second_lower)) == lowest_two(lower)

    def test_an_explicit_count_builds_no_mask_dict(self):
        rng = random.Random(227)
        for _ in range(20):
            base = random_poset(rng, rng.randrange(0, 7))
            lat = lattice_from_order(ideal_lattice(base).order)
            phi = random_monotone_between(rng, lat.ideal_base, lat.ideal_base).image
            by_mask = {m: x for x, m in zip(lat.elements, lat.element_masks)}
            table = {x: by_mask[sum(1 << y for y, z in enumerate(phi) if m >> z & 1)] for x, m in zip(lat.elements, lat.element_masks)}
            hom = is_homomorphism(table, lat, lat)
            count_ideals(hom_quotient(hom).graph)
            assert lat._by_mask is None


def _one_loop_agrees(order):
    """Whether _birkhoff accepts the order, after asserting that it agrees
    with the closure oracle and with the two-loop check it replaced: the
    same verdict, J with the same generators, and the same masks; and
    that it lists J as the principal elements and each element's two
    lowest lower covers.  The oracles run first, so they close the order
    themselves."""
    expected, two = closure_birkhoff(order), two_loop_birkhoff(order)
    lower, _ = climbing_cover_masks(order)
    got = _birkhoff(order)
    assert (got is None) == (expected is None) == (two is None), order.elements
    if got is None:
        return False
    base, masks, principal, first, second = got
    for ref in (expected, two):
        assert (base.elements, base.gen_masks, masks) == (ref[0].elements, ref[0].gen_masks, ref[1]), order.elements
    assert [order.elements[a] for a in principal] == list(base.elements)
    assert (first, second) == lowest_two(lower)
    return True


class TestBirkhoffOneLoop:
    """Differential: the one-loop cover check against the closure oracle
    and the two-loop check, on every bounded poset of at most seven
    elements given by every strict relation, by its covers, and by its
    covers under identifiers that run against the order."""

    def test_every_bounded_poset_of_at_most_seven_elements(self):
        accepted = total = 0
        for n in range(6):
            for inner in labeled_posets(n):
                redundant = _bounded(inner)
                pairs = redundant.covers()
                rename = fresh_names(redundant, None, "reversed", "r")
                forms = (
                    redundant,
                    build_poset(list(redundant.elements), pairs),
                    build_poset(sorted(rename.values()), [(rename[x], rename[y]) for x, y in pairs]),
                )
                verdicts = {_one_loop_agrees(order) for order in forms}
                assert len(verdicts) == 1
                accepted += verdicts.pop()
                total += 1
        assert total == 4474 and 0 < accepted < total


class TestRefusalClosesOnce:
    def test_mixed_rows_close_once_on_refusal_and_never_on_accept(self, monkeypatch):
        # N5 above the top of the ideal lattice of a 4x4 grid: the top's
        # successors have heights 2 and 1, so the cover pass closes the
        # up-sets; the refusal's witness scans read them and close only the
        # down-sets.
        lat = ideal_lattice(build_poset(*grid_shape(4, 4)))
        top = lat.top
        elements = list(lat.elements) + ["xa", "xb", "xc", "xt"]
        pairs = lat.order.covers() + [(top, "xa"), ("xa", "xb"), ("xb", "xt"), (top, "xc"), ("xc", "xt")]
        calls = []
        closure = dualfix.poset.dag_reach

        def counted(*args):
            calls.append(len(args[0]))
            return closure(*args)

        monkeypatch.setattr(dualfix.poset, "dag_reach", counted)
        order = build_poset(elements, pairs)
        with pytest.raises(NotDistributive) as exc:
            lattice_from_order(order)
        assert calls == [74, 74]
        assert list(order.up_masks) == closure_rows(order.gen_masks)
        assert _witness(brute_lattice_witness, build_poset(elements, pairs)) == (NotDistributive, exc.value.args)
        # a distributive lattice given with a redundant edge from bottom to
        # top has a mixed row at the bottom; accepting it closes nothing
        del calls[:]
        given = build_poset(list(lat.elements), lat.order.covers() + [(lat.bot, top)])
        lattice_from_order(given)
        assert calls == [len(given)]
        assert given._up_masks is None and given._down_masks is None


class TestIrreduciblesReadThePrincipalElements:
    """Differential: _irreducibles of an ideal lattice, which reads each
    base point's principal element off the lattice, against the
    relabelling by each point's closed down-set."""

    def test_every_poset_of_at_most_five_elements_shuffled_and_reversed(self):
        rng = random.Random(229)
        checked = 0
        for p in noniso_posets_upto(5):
            for naming in ("shuffled", "reversed", "shuffled"):
                rename = fresh_names(p, rng, naming, "b")
                base = build_poset(sorted(rename.values()), [(rename[x], rename[y]) for x, y in p.covers()])
                lat = ideal_lattice(base)
                irr, pos = _irreducibles(lat)
                assert base._down_masks is None
                ref_irr, ref_pos = relabelled_irreducibles(lat)
                assert (irr.elements, irr.gen_masks, irr.order, list(pos)) == (
                    ref_irr.elements, ref_irr.gen_masks, ref_irr.order, list(ref_pos)
                )
                assert irr == ref_irr
                checked += 1
        assert checked == 3 * 88

import random
from itertools import product

import pytest

from dualfix import (
    LatticeHom,
    MonotoneMap,
    NotALattice,
    NotDistributive,
    NotHom,
    build_poset,
    dual_map,
    hom_from_dual,
    ideal_lattice,
    is_homomorphism,
    is_monotone,
    join_irreducibles,
    lattice_from_order,
    lift_hom,
)
from dualfix.lattice import _least_by_differences
from helpers import (
    NoMinimum,
    birkhoff_eta,
    brute_dual_table,
    candidate_dual_map,
    fresh_names,
    monotone_selfmaps,
    noniso_posets_upto,
    random_monotone_between,
    random_poset,
    renamed_shape,
    unchecked,
)


def eta_lift(hom):
    """lift_hom by the eta route: conjugate hom by the element ->
    irreducibles-below-it bijection and validate the table on the ideal
    lattice of the irreducibles."""
    lat = hom.domain
    eta = birkhoff_eta(lat)
    base = eta[lat.bot].carrier
    lifted = ideal_lattice(base)
    rename = [lifted.elements[lifted.ideal_index(eta[a].mask)] for a in lat.elements]
    table = {rename[i]: rename[j] for i, j in enumerate(hom.image)}
    return base, is_homomorphism(table, lifted, lifted)


def collapse_hom(two_chain):
    lat = ideal_lattice(two_chain)
    return is_homomorphism({"{}": "{}", "{p}": "{}", "{p,q}": "{p,q}"}, lat, lat)


class TestDualMap:
    def test_two_chain_collapse_frozen(self, two_chain):
        hom = collapse_hom(two_chain)
        phi = dual_map(hom)
        # oracle: evaluate the candidate sets by brute force
        assert brute_dual_table(hom) == {"p": "q", "q": "q"}
        assert phi.table == {"p": "q", "q": "q"}

    def test_antichain_swap_frozen(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        hom = is_homomorphism(
            {"{}": "{}", "{a}": "{b}", "{b}": "{a}", "{a,b}": "{a,b}"}, lat, lat
        )
        assert brute_dual_table(hom) == {"a": "b", "b": "a"}
        assert dual_map(hom).table == {"a": "b", "b": "a"}

    def test_identity_dualizes_to_identity(self):
        rng = random.Random(47)
        for _ in range(10):
            base = random_poset(rng, rng.randrange(0, 6))
            lat = ideal_lattice(base)
            phi = dual_map(LatticeHom.identity(lat))
            assert phi == MonotoneMap.identity(base)

    def test_matches_brute_oracle(self):
        rng = random.Random(53)
        for _ in range(30):
            base = random_poset(rng, rng.randrange(0, 6))
            lat = ideal_lattice(base)
            phi0 = monotone_selfmaps(base)[0] if len(base) == 0 else None
            phi0 = phi0 or random_monotone_between(rng, base, base)
            hom = hom_from_dual(phi0, lat, lat)
            assert dual_map(hom).table == brute_dual_table(hom)

    def test_lattices_from_order_dualize_directly(self, three_chain):
        lat = lattice_from_order(three_chain)
        hom = is_homomorphism({"0": "0", "m": "0", "1": "1"}, lat, lat)
        assert dual_map(hom).table == {"1": "1", "m": "1"}
        assert dual_map(LatticeHom.identity(lat)) == MonotoneMap.identity(join_irreducibles(lat))

    def test_matches_the_lift_hom_route(self):
        # differential: the dual on the stored representation against the
        # dual of the hom conjugated onto the ideal lattice of J(L)
        rng = random.Random(71)
        for _ in range(30):
            base = random_poset(rng, rng.randrange(0, 6))
            ideals = ideal_lattice(base)
            lat = lattice_from_order(ideals.order)
            induced = hom_from_dual(random_monotone_between(rng, base, base), ideals, ideals)
            hom = is_homomorphism(induced.table, lat, lat)
            _, lifted = lift_hom(hom)
            assert dual_map(hom) == dual_map(lifted)

    def test_empty_candidate_set_refused(self, two_antichain):
        # not a homomorphism: a is in no principal-ideal image, so its
        # candidate set is empty
        lat = ideal_lattice(two_antichain)
        table = {"{}": "{}", "{a}": "{b}", "{b}": "{b}", "{a,b}": "{a,b}"}
        with pytest.raises(NoMinimum) as exc:
            candidate_dual_map(unchecked(LatticeHom, table, lat, lat))
        assert exc.value.payload["witness"] == ["a"]
        with pytest.raises(NotHom):
            is_homomorphism(table, lat, lat)

    def test_tied_candidate_set_refused(self, two_antichain):
        # a is in both principal-ideal images, and the two candidates are
        # incomparable: no unique least, so the map is refused
        lat = ideal_lattice(two_antichain)
        table = {"{}": "{}", "{a}": "{a}", "{b}": "{a}", "{a,b}": "{a,b}"}
        with pytest.raises(NoMinimum) as exc:
            candidate_dual_map(unchecked(LatticeHom, table, lat, lat))
        assert exc.value.payload["witness"] == ["a"]
        with pytest.raises(NotHom):
            is_homomorphism(table, lat, lat)


def _dual_outcome(dualize, hom):
    try:
        return dualize(hom)
    except NoMinimum as exc:
        return type(exc), exc.args


class TestDualMapByDifferences:
    """Differential: the dual read off by differences against the pair loop."""

    def test_validated_homs_take_the_difference_path(self):
        rng = random.Random(109)
        for _ in range(150):
            base = random_poset(rng, rng.randrange(0, 7))
            ideals = ideal_lattice(base)
            hom = hom_from_dual(random_monotone_between(rng, base, base), ideals, ideals)
            lat = lattice_from_order(ideals.order)
            for h in (hom, is_homomorphism(hom.table, lat, lat)):
                p, q = h.domain.ideal_base, h.codomain.ideal_base

                def image(ideal):
                    return h.codomain.element_masks[h.image[h.domain.ideal_index(ideal)]]

                images = [image(d) for d in p.down_masks]
                strict = [image(d ^ 1 << x) for x, d in enumerate(p.down_masks)]
                assert _least_by_differences(images, strict, p, q) is not None
                assert dual_map(h) == candidate_dual_map(h)

    def test_random_unchecked_tables(self):
        rng = random.Random(113)
        refused = 0
        for _ in range(600):
            dom = ideal_lattice(random_poset(rng, rng.randrange(0, 6)))
            cod = ideal_lattice(random_poset(rng, rng.randrange(0, 4)))
            if rng.random() < 0.5:
                table = random_monotone_between(rng, dom.order, cod.order).table
            else:
                table = {x: rng.choice(cod.elements) for x in dom.elements}
            expected = _dual_outcome(candidate_dual_map, unchecked(LatticeHom, table, dom, cod))
            try:
                dual = is_homomorphism(table, dom, cod).dual
            except NotHom:
                # a table with a dual is a hom exactly when it is the
                # preimage map of that dual
                assert isinstance(expected, tuple) or hom_from_dual(expected, dom, cod).table != table
            else:
                assert dual == expected
            refused += isinstance(expected, tuple)
        assert 0 < refused < 600

    def test_new_at_one_point_that_is_not_least(self):
        # f sends {s}, {p,q} and every ideal of three or more points to {y}:
        # y is new only at s, since f(down-set of r) = f({p,q}), yet y is
        # also in f(down-set of r) with r incomparable to s, so there is no
        # least candidate, as the pair loop says
        base = build_poset(["p", "q", "r", "s"], [("p", "r"), ("q", "r")])
        dom = ideal_lattice(base)
        cod = ideal_lattice(build_poset(["y"], []))
        table = {x: "{y}" if x in ("{s}", "{p,q}", "{p,q,r}") or x.count(",") >= 2 else "{}" for x in dom.elements}
        hom = unchecked(LatticeHom, table, dom, cod)
        assert _dual_outcome(candidate_dual_map, hom) == (NoMinimum, NoMinimum("y").args)
        p, q = dom.ideal_base, cod.ideal_base
        images = [cod.element_masks[hom.image[dom.ideal_index(d)]] for d in p.down_masks]
        strict = [cod.element_masks[hom.image[dom.ideal_index(d ^ 1 << x)]] for x, d in enumerate(p.down_masks)]
        assert _least_by_differences(images, strict, p, q) is None
        with pytest.raises(NotHom):
            is_homomorphism(table, dom, cod)


def _bounded_lattices_upto(n):
    """Every distributive lattice with at most n elements, read from its
    order."""
    out = []
    for order in noniso_posets_upto(n):
        try:
            out.append(lattice_from_order(order))
        except (NotALattice, NotDistributive):
            pass
    return out


def _homs_between(dom, cod):
    """Every homomorphism dom -> cod, found by trying every table that keeps
    bottom and top."""
    inner = [i for i in range(len(dom)) if i not in (dom.bot_idx, dom.top_idx)]
    for choice in product(range(len(cod)), repeat=len(inner)):
        image = [cod.bot_idx] * len(dom)
        image[dom.top_idx] = cod.top_idx
        for i, c in zip(inner, choice):
            image[i] = c
        try:
            yield is_homomorphism({x: cod.elements[c] for x, c in zip(dom.elements, image)}, dom, cod)
        except NotHom:
            pass


def _renamed(base, rng, naming, prefix):
    """The poset under :func:`fresh_names`."""
    rename = fresh_names(base, rng, naming, prefix)
    return build_poset(sorted(rename.values()), [(rename[x], rename[y]) for x, y in base.covers()])


def _check_stored_dual(hom):
    assert hom.dual is not None
    assert hom.dual == candidate_dual_map(hom)
    q, p = hom.codomain.ideal_base, hom.domain.ideal_base
    assert is_monotone(hom.dual.table, q, p) == hom.dual
    assert dual_map(hom) is hom.dual


class TestStoredDual:
    """Differential: the dual that is_homomorphism stores against the
    candidate loop, and the homs that store none."""

    def test_every_hom_between_lattices_of_at_most_five_elements(self):
        lattices = _bounded_lattices_upto(5)
        checked = 0
        for dom in lattices:
            for cod in lattices:
                for hom in _homs_between(dom, cod):
                    _check_stored_dual(hom)
                    checked += 1
        assert checked > 100

    def test_every_endomorphism_of_ideal_lattices_of_at_most_five_points(self):
        for base in noniso_posets_upto(5):
            ideals = ideal_lattice(base)
            lat = lattice_from_order(ideals.order)
            for phi in monotone_selfmaps(base):
                hom = hom_from_dual(phi, ideals, ideals)
                _check_stored_dual(hom)
                assert hom.dual == phi
                _check_stored_dual(is_homomorphism(hom.table, lat, lat))

    @pytest.mark.parametrize("naming", ["shuffled", "reversed"])
    def test_seeded_ideal_lattices_under_shuffled_and_reversed_names(self, naming):
        rng = random.Random(163)
        for _ in range(60):
            p = _renamed(random_poset(rng, rng.randrange(1, 7), prefix="p"), rng, naming, "p")
            q = _renamed(random_poset(rng, rng.randrange(0, 7), prefix="q"), rng, naming, "q")
            lp, lq = ideal_lattice(p), ideal_lattice(q)
            for hom in (
                hom_from_dual(random_monotone_between(rng, q, p), lp, lq),
                hom_from_dual(random_monotone_between(rng, p, p), lp, lp),
            ):
                _check_stored_dual(hom)
                dom, cod = lattice_from_order(hom.domain.order), lattice_from_order(hom.codomain.order)
                _check_stored_dual(is_homomorphism(hom.table, dom, cod))

    def test_identity_and_after_carry_the_functorial_dual(self):
        rng = random.Random(167)
        for _ in range(40):
            base = random_poset(rng, rng.randrange(0, 6))
            ideals = ideal_lattice(base)
            for lat in (ideals, lattice_from_order(ideals.order)):
                f = is_homomorphism(hom_from_dual(random_monotone_between(rng, base, base), ideals, ideals).table, lat, lat)
                g = is_homomorphism(hom_from_dual(random_monotone_between(rng, base, base), ideals, ideals).table, lat, lat)
                for hom in (LatticeHom.identity(lat), g.after(f)):
                    _check_stored_dual(hom)
                assert LatticeHom.identity(lat).dual == MonotoneMap.identity(lat.ideal_base)
                assert g.after(f).dual == f.dual.after(g.dual)
                bypass = unchecked(LatticeHom, f.table, lat, lat)
                assert bypass.dual is None and candidate_dual_map(bypass) == f.dual


class TestFunctorialDual:
    """Differential: the duals that identity and after compose against the
    candidate loop on the same hom."""

    @staticmethod
    def _check(f, g):
        for hom in (*map(LatticeHom.identity, (f.domain, f.codomain, g.codomain)), g.after(f)):
            assert hom.dual == candidate_dual_map(hom)

    def test_every_composable_pair_between_lattices_of_at_most_five_elements(self):
        lattices = _bounded_lattices_upto(5)
        n = len(lattices)
        homs = {(a, b): list(_homs_between(lattices[a], lattices[b])) for a in range(n) for b in range(n)}
        pairs = 0
        for (a, b), fs in homs.items():
            for c in range(n):
                for f in fs:
                    for g in homs[b, c]:
                        self._check(f, g)
                        pairs += 1
        assert pairs > 20000

    @pytest.mark.parametrize("naming", ["shuffled", "reversed"])
    def test_seeded_ideal_lattices_under_shuffled_and_reversed_names(self, naming):
        rng = random.Random(173)
        for _ in range(40):
            # p and q are the codomains of the base maps, so not empty
            p = _renamed(random_poset(rng, rng.randrange(1, 6)), rng, naming, "p")
            q = _renamed(random_poset(rng, rng.randrange(1, 6)), rng, naming, "q")
            r = _renamed(random_poset(rng, rng.randrange(0, 6)), rng, naming, "r")
            lp, lq, lr = ideal_lattice(p), ideal_lattice(q), ideal_lattice(r)
            f = hom_from_dual(random_monotone_between(rng, q, p), lp, lq)
            g = hom_from_dual(random_monotone_between(rng, r, q), lq, lr)
            self._check(f, g)
            # the same homs on the lattices read from the orders
            dp, dq, dr = (lattice_from_order(lat.order) for lat in (lp, lq, lr))
            self._check(is_homomorphism(f.table, dp, dq), is_homomorphism(g.table, dq, dr))

    def test_after_refuses_two_representations_of_one_lattice(self):
        rng = random.Random(179)
        for _ in range(20):
            base = random_poset(rng, rng.randrange(1, 6))
            ideals = ideal_lattice(base)
            lat = lattice_from_order(ideals.order)
            f = hom_from_dual(random_monotone_between(rng, base, base), ideals, ideals)
            g = is_homomorphism(f.table, lat, lat)
            assert f.codomain == g.domain and f.codomain.ideal_base != g.domain.ideal_base
            with pytest.raises(ValueError):
                g.after(f)
            with pytest.raises(ValueError):
                f.after(g)


class TestHomFromDual:
    def test_two_chain_collapse_frozen(self, two_chain):
        phi = is_monotone({"p": "q", "q": "q"}, two_chain, two_chain)
        hom = hom_from_dual(phi)
        assert hom.table == {"{}": "{}", "{p}": "{}", "{p,q}": "{p,q}"}

    def test_identity(self, two_chain):
        phi = MonotoneMap.identity(two_chain)
        lat = ideal_lattice(two_chain)
        assert hom_from_dual(phi, lat, lat) == LatticeHom.identity(lat)

    def test_antichain_swap_frozen(self, two_antichain):
        phi = is_monotone({"a": "b", "b": "a"}, two_antichain, two_antichain)
        hom = hom_from_dual(phi)
        assert hom.table == {"{}": "{}", "{a}": "{b}", "{b}": "{a}", "{a,b}": "{a,b}"}

    def test_lattices_of_other_posets_are_rejected(self, two_chain, two_antichain):
        phi = MonotoneMap.identity(two_chain)
        lat = ideal_lattice(two_antichain)
        with pytest.raises(ValueError):
            hom_from_dual(phi, lat, lat)

    def test_images_are_ideals_and_hom_validates(self):
        # the construction re-validates through is_homomorphism, so surviving
        # construction is itself the check; spot extra structure here
        rng = random.Random(59)
        for _ in range(20):
            base = random_poset(rng, rng.randrange(0, 6))
            phi = random_monotone_between(rng, base, base)
            hom = hom_from_dual(phi)
            # a self-map builds one ideal lattice, both domain and codomain
            assert hom.domain is hom.codomain
            assert hom.domain.ideal_base == base
            assert hom(hom.domain.bot) == hom.codomain.bot


class TestLiftHom:
    def test_ideal_lattice_is_renamed_in_place(self, two_chain):
        hom = collapse_hom(two_chain)
        base, lifted = lift_hom(hom)
        # the base recovers the 2-chain as principal-ideal names
        assert base.elements == ("{p,q}", "{p}")
        assert base.leq("{p}", "{p,q}")
        rename = dict(zip(hom.domain.elements, hom.domain.elements))
        assert len(lifted.domain) == len(hom.domain)

    def test_three_chain_identity(self, three_chain):
        lat = lattice_from_order(three_chain)
        base, lifted = lift_hom(LatticeHom.identity(lat))
        assert base.elements == ("1", "m")
        assert base.leq("m", "1")
        assert lifted == LatticeHom.identity(lifted.domain)

    def test_three_chain_collapse_matches_dual_map_instance(self, three_chain):
        lat = lattice_from_order(three_chain)
        hom = is_homomorphism({"0": "0", "m": "0", "1": "1"}, lat, lat)
        base, lifted = lift_hom(hom)
        phi = dual_map(lifted)
        # conjugation produces the collapse instance: everything maps to the top
        assert phi.table == {"1": "1", "m": "1"}

    def test_matches_the_eta_route(self):
        # differential: the lift built on the stored dual against the
        # conjugate by eta, on both lattice kinds
        rng = random.Random(83)
        bases = [(base, None) for base in noniso_posets_upto(5)]
        for k in range(60):
            base = random_poset(rng, rng.randrange(0, 7))
            naming = ("shuffled", "reversed")[k % 2]
            bases.append((build_poset(*renamed_shape((list(base.elements), base.covers()), rng, naming)), naming))
        checked = 0
        for base, naming in bases:
            ideals = ideal_lattice(base)
            names = fresh_names(ideals.order, rng, naming) if naming else dict(zip(ideals, ideals))
            order = build_poset(list(names.values()), [(names[x], names[y]) for x, y in ideals.order.covers()])
            for lat, rename in ((ideals, dict(zip(ideals, ideals))), (lattice_from_order(order), names)):
                homs = [LatticeHom.identity(lat)]
                for _ in range(3):
                    induced = hom_from_dual(random_monotone_between(rng, base, base), ideals, ideals)
                    homs.append(is_homomorphism({rename[x]: rename[induced(x)] for x in ideals}, lat, lat))
                for hom in homs:
                    got_base, lifted = lift_hom(hom)
                    base_eta, lifted_eta = eta_lift(hom)
                    assert got_base == base_eta
                    assert lifted == lifted_eta
                    assert lifted.dual == lifted_eta.dual
                    checked += 1
        assert checked == 8 * len(bases)

    def test_rejects_non_endomorphisms(self, two_chain, two_antichain):
        l1 = ideal_lattice(two_chain)
        l2 = ideal_lattice(two_antichain)
        hom = is_homomorphism(
            {"{}": "{}", "{p}": "{}", "{p,q}": "{a,b}"}, l1, l2
        )
        with pytest.raises(ValueError):
            lift_hom(hom)


class TestRoundTrips:
    def test_dual_of_induced_hom_is_identity_small(self):
        # exhaustive warm-up; the acceptance suite pushes this to size 5
        for base in noniso_posets_upto(3):
            lat = ideal_lattice(base)
            for phi in monotone_selfmaps(base):
                assert dual_map(hom_from_dual(phi, lat, lat)) == phi

    def test_induced_hom_of_dual_is_identity_small(self):
        for base in noniso_posets_upto(3):
            lat = ideal_lattice(base)
            for phi in monotone_selfmaps(base):
                hom = hom_from_dual(phi, lat, lat)
                assert hom_from_dual(dual_map(hom), lat, lat) == hom

    def test_contravariance_on_random_instances(self):
        rng = random.Random(61)
        for _ in range(40):
            p = random_poset(rng, rng.randrange(1, 6), prefix="p")
            q = random_poset(rng, rng.randrange(1, 6), prefix="q")
            r = random_poset(rng, rng.randrange(1, 6), prefix="r")
            phi1 = random_monotone_between(rng, q, p)   # induces O(P) -> O(Q)
            phi2 = random_monotone_between(rng, r, q)   # induces O(Q) -> O(R)
            lp, lq, lr = ideal_lattice(p), ideal_lattice(q), ideal_lattice(r)
            f1 = hom_from_dual(phi1, lp, lq)
            f2 = hom_from_dual(phi2, lq, lr)
            assert dual_map(f2.after(f1)) == phi1.after(phi2)

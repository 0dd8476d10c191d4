import contextlib
import random
from functools import reduce
from itertools import product
from operator import or_

import pytest

import dualfix.fixpoint
from dualfix import (
    LatticeHom,
    MonotoneMap,
    OrderIdeal,
    QuotientNotAntisymmetric,
    bruteforce_fixpoints,
    build_poset,
    coequalizer_general,
    count_ideals,
    dual_map,
    fixpoints_via_duality,
    hom_from_dual,
    ideal_lattice,
    is_homomorphism,
    is_monotone,
    iter_ideal_masks,
    lattice_from_order,
    lift_hom,
    phi_components,
)
from dualfix.bitgraph import topo_order
from dualfix.fixpoint import FixpointLattice, _guard_rows
from dualfix.jsonio import poset_from_obj, quotient_to_obj
from helpers import (
    CycleReport,
    MaxStepsExceeded,
    NotAnIdealOfC,
    algorithm1,
    all_ideals,
    closure_is_down_closed,
    brute_components_witness,
    brute_preorder_pairs,
    closure_coequalizer,
    gen_preorder,
    hom_quotient,
    kleene_iterate,
    monotone_selfmaps,
    noniso_posets_upto,
    random_monotone_between,
    random_poset,
    union_find_components,
    union_member_masks,
    unchecked,
)


def collapse_phi(two_chain):
    return is_monotone({"p": "q", "q": "q"}, two_chain, two_chain)


def _carried_verdicts(base, masks):
    """(union, verdict) for every union of the classes of ``masks``, the
    verdict read as iter_members reads it off the ORed guard rows."""
    n = len(base)
    rows = _guard_rows(base, masks)
    for qmask in range(1 << len(masks)):
        row = reduce(or_, [r for c, r in enumerate(rows) if qmask >> c & 1], 0)
        union = row & ((1 << n) - 1)
        yield union, not row >> n & ~union


class TestPhiComponents:
    def test_chain_collapse_single_class(self, two_chain):
        quo = phi_components(collapse_phi(two_chain))
        assert quo.classes == (("p", "q"),)
        assert quo.class_poset.elements == ("[p]",)

    def test_antichain_swap_single_class(self, two_antichain):
        phi = is_monotone({"a": "b", "b": "a"}, two_antichain, two_antichain)
        quo = phi_components(phi)
        assert quo.classes == (("a", "b"),)

    def test_identity_gives_isomorphic_quotient(self):
        rng = random.Random(67)
        for _ in range(15):
            base = random_poset(rng, rng.randrange(0, 7))
            quo = phi_components(MonotoneMap.identity(base))
            assert all(len(c) == 1 for c in quo.classes)
            assert len(quo) == len(base)
            for x in base:
                for y in base:
                    assert base.leq(x, y) == quo.class_leq(
                        quo.class_name_of(x), quo.class_name_of(y)
                    )

    def test_antisymmetry_failure_on_a_crafted_non_monotone_map(self):
        # a<b and c<d; swapping a~d and b~c forces [a,d] and [b,c] into a
        # 2-cycle of the induced class relation.  No monotone map can do
        # this, so the bypass constructor is used.
        base = build_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        phi = unchecked(MonotoneMap, {"a": "d", "d": "a", "b": "c", "c": "b"}, base, base)
        with pytest.raises(QuotientNotAntisymmetric) as exc:
            phi_components(phi)
        assert set(exc.value.payload["witness"]) == {"[a]", "[b]"}
        # the general construction instead merges everything into one class
        assert coequalizer_general(phi).classes == (("a", "b", "c", "d"),)

    def test_two_cycles_give_the_witness_of_the_first_shared_class(self):
        # b~e, c~d close the cycle b<c~d<e~b, and w~z, x~y close w<x~y<z~w.
        # Sorted by least member the components are [a], [b], [c], [w], [x];
        # [c] is the first to share a class with an earlier one.  Union-find
        # reported the cycle its Tarjan pass met first.
        base = build_poset(
            ["a", "b", "c", "d", "e", "w", "x", "y", "z"],
            [("b", "c"), ("d", "e"), ("w", "x"), ("y", "z"), ("a", "w")],
        )
        table = {"a": "a", "b": "e", "e": "b", "c": "d", "d": "c", "w": "z", "z": "w", "x": "y", "y": "x"}
        phi = unchecked(MonotoneMap, table, base, base)
        with pytest.raises(QuotientNotAntisymmetric) as exc:
            phi_components(phi)
        assert tuple(exc.value.payload["witness"]) == ("[b]", "[c]")
        with pytest.raises(QuotientNotAntisymmetric) as old:
            union_find_components(phi)
        assert tuple(old.value.payload["witness"]) == ("[w]", "[x]")

    @staticmethod
    def _assert_matches_union_find(phi):
        """Same accept or reject as the union-find construction; an accepted
        quotient is equal to it, a rejected map names the canonical witness.
        Returns whether the map was accepted."""
        try:
            ref = union_find_components(phi)
        except QuotientNotAntisymmetric as old:
            with pytest.raises(QuotientNotAntisymmetric) as exc:
                phi_components(phi)
            assert exc.value.payload["witness"] == list(brute_components_witness(phi))
            # union-find's witness lies in one class of the coequalizer too
            quo = coequalizer_general(phi)
            c1, c2 = (quo.class_name_of(name[1:-1]) for name in old.payload["witness"])
            assert c1 == c2
            return False
        quo = phi_components(phi)
        assert quo == ref
        assert quo.class_poset.elements == ref.class_poset.elements
        assert quo.member_masks == ref.member_masks
        assert brute_components_witness(phi) is None
        return True

    def test_matches_union_find_exhaustive_small(self):
        # every monotone self-map of every poset of at most 4 elements, which
        # is always accepted, and every table on at most 3 elements
        for p in noniso_posets_upto(4):
            base = build_poset(list(p.elements), p.covers())
            for phi in monotone_selfmaps(base):
                assert self._assert_matches_union_find(phi)
        outcomes = set()
        for base in noniso_posets_upto(3):
            for image in product(range(len(base)), repeat=len(base)):
                outcomes.add(self._assert_matches_union_find(MonotoneMap(base, base, image)))
        assert outcomes == {True, False}

    def test_matches_union_find_on_random_maps(self):
        rng = random.Random(131)
        outcomes = []
        for _ in range(300):
            base = random_poset(rng, rng.randrange(0, 25))
            assert self._assert_matches_union_find(random_monotone_between(rng, base, base))
            image = [rng.randrange(len(base)) for _ in base.elements]
            outcomes.append(self._assert_matches_union_find(MonotoneMap(base, base, image)))
        assert 30 < outcomes.count(False) < 270


class TestCoequalizerGeneral:
    def test_same_results_as_components_on_examples(self, two_chain, two_antichain):
        for base, table in [
            (two_chain, {"p": "q", "q": "q"}),
            (two_antichain, {"a": "b", "b": "a"}),
            (two_chain, {"p": "p", "q": "q"}),
        ]:
            phi = is_monotone(table, base, base)
            assert coequalizer_general(phi) == phi_components(phi)

    def test_three_chain_partial_collapse(self, three_chain):
        phi = is_monotone({"0": "0", "m": "0", "1": "1"}, three_chain, three_chain)
        quo = coequalizer_general(phi)
        assert quo.classes == (("0", "m"), ("1",))
        assert quo.class_leq("[0]", "[1]")
        assert not quo.class_leq("[1]", "[0]")

    def test_identity_isomorphic_to_base(self, three_chain):
        quo = coequalizer_general(MonotoneMap.identity(three_chain))
        assert len(quo) == 3

    def test_generating_preorder_matches_brute_closure(self):
        rng = random.Random(71)
        for _ in range(40):
            base = random_poset(rng, rng.randrange(0, 7))
            phi = random_monotone_between(rng, base, base)
            quo = coequalizer_general(phi)
            expected = brute_preorder_pairs(base, phi)
            rows = gen_preorder(quo)
            got = {
                (x, base.elements[j])
                for i, x in enumerate(base.elements)
                for j in range(len(base))
                if rows[i] >> j & 1
            }
            assert got == expected

    def test_class_order_iff_preorder(self):
        # the class relation must reflect the generating preorder exactly,
        # in both directions
        rng = random.Random(73)
        for _ in range(25):
            base = random_poset(rng, rng.randrange(1, 7))
            phi = random_monotone_between(rng, base, base)
            quo = coequalizer_general(phi)
            pre = brute_preorder_pairs(base, phi)
            for x in base:
                for y in base:
                    assert ((x, y) in pre) == quo.class_leq(
                        quo.class_name_of(x), quo.class_name_of(y)
                    )

    def test_base_order_embeds_into_class_order(self):
        rng = random.Random(79)
        for _ in range(25):
            base = random_poset(rng, rng.randrange(0, 7))
            phi = random_monotone_between(rng, base, base)
            quo = coequalizer_general(phi)
            for x in base:
                for y in base:
                    if base.leq(x, y):
                        assert quo.class_leq(quo.class_name_of(x), quo.class_name_of(y))

    def test_classes_partition_the_base(self):
        rng = random.Random(83)
        for _ in range(25):
            base = random_poset(rng, rng.randrange(0, 7))
            phi = random_monotone_between(rng, base, base)
            quo = coequalizer_general(phi)
            flat = [x for c in quo.classes for x in c]
            assert sorted(flat) == sorted(base.elements)
            assert len(flat) == len(set(flat))

    @staticmethod
    def _assert_matches_closure_construction(phi):
        quo, ref = coequalizer_general(phi), closure_coequalizer(phi)
        assert quo.classes == ref.classes
        assert quo.class_poset.elements == ref.class_poset.elements
        assert quo.class_poset.up_masks == ref.class_poset.up_masks
        assert quo.class_poset.down_masks == ref.class_poset.down_masks
        assert quo.member_masks == ref.member_masks

    def test_matches_the_closure_construction_exhaustive_small(self):
        # every monotone self-map of every poset of at most 4 elements, with
        # the poset rebuilt from its covers so that the generators are sparse
        for p in noniso_posets_upto(4):
            base = build_poset(list(p.elements), p.covers())
            for phi in monotone_selfmaps(base):
                self._assert_matches_closure_construction(phi)

    def test_matches_the_closure_construction_on_random_maps(self):
        # random generating pairs, monotone maps and arbitrary tables
        rng = random.Random(89)
        for _ in range(300):
            base = random_poset(rng, rng.randrange(0, 13))
            self._assert_matches_closure_construction(random_monotone_between(rng, base, base))
            image = [rng.randrange(len(base)) for _ in base.elements]
            self._assert_matches_closure_construction(MonotoneMap(base, base, image))

    def test_matches_the_closure_construction_on_every_table_small(self):
        # every table, monotone or not, on every poset of at most 4 elements:
        # the non-monotone ones close cycles between map components
        for p in noniso_posets_upto(4):
            base = build_poset(list(p.elements), p.covers())
            for image in product(range(len(base)), repeat=len(base)):
                self._assert_matches_closure_construction(MonotoneMap(base, base, image))

    def test_matches_the_closure_construction_with_identifiers_either_way(self):
        rng = random.Random(101)
        merged = 0
        for _ in range(200):
            p = random_poset(rng, rng.randrange(0, 20))
            rename = dict(zip(p.elements, reversed(p.elements)))
            flipped = build_poset(list(p.elements), [(rename[x], rename[y]) for x, y in p.covers()])
            for base in (p, flipped):
                self._assert_matches_closure_construction(random_monotone_between(rng, base, base))
                phi = MonotoneMap(base, base, [rng.randrange(len(base)) for _ in base.elements])
                self._assert_matches_closure_construction(phi)
                try:
                    phi_components(phi)
                except QuotientNotAntisymmetric:
                    merged += 1
        assert merged > 20

    def test_agreement_with_components_exhaustive_small(self):
        for base in noniso_posets_upto(3):
            for phi in monotone_selfmaps(base):
                assert phi_components(phi) == coequalizer_general(phi)


ODD_NAMES = {"elements": ["c1", "c10", "c2"], "leq": [["c1", "c2"]]}


class TestClassNamesSortUnlikeIdentifiers:
    # "[c10]" < "[c1]" although "c1" < "c10": the classes are ordered by
    # name, so the class poset's identifiers stay sorted.

    def test_poset_side(self):
        base = poset_from_obj(ODD_NAMES)
        quo = coequalizer_general(MonotoneMap.identity(base))
        assert quo.class_poset.elements == ("[c10]", "[c1]", "[c2]")
        assert quo.classes == (("c10",), ("c1",), ("c2",))
        assert quo.class_name_of("c10") == "[c10]"
        assert quotient_to_obj(quo) == {
            "classes": {"[c10]": ["c10"], "[c1]": ["c1"], "[c2]": ["c2"]},
            "leq": [["[c1]", "[c2]"]],
        }
        fx = fixpoints_via_duality(MonotoneMap.identity(base))
        assert fx.count() == 6
        assert [list(m.members) for m in fx.iter_members()] == [
            [], ["c10"], ["c1"], ["c1", "c10"], ["c1", "c2"], ["c1", "c10", "c2"],
        ]

    def test_lattice_side(self):
        lat = lattice_from_order(poset_from_obj({"elements": ["b", "x1", "x10"], "leq": [["b", "x1"], ["x1", "x10"]]}))
        hom = is_homomorphism({x: x for x in lat.elements}, lat, lat)
        quo = hom_quotient(hom)
        assert quotient_to_obj(quo) == {"classes": {"[x10]": ["x10"], "[x1]": ["x1"]}, "leq": [["[x1]", "[x10]"]]}
        got = [algorithm1(hom, quo.class_poset.ids_from(m), quotient=quo) for m in iter_ideal_masks(quo.class_poset)]
        assert got == ["b", "x1", "x10"]

    def test_class_edges_against_the_names_need_no_sweep(self, monkeypatch):
        # classes are indexed by least member, so the class edges of an
        # identity map are the base's, even where the names [x10] < [x1] <
        # [x2] or [x1] < [x20] < [x2] run against them: naming permutes the
        # rows and the order, and no sweep runs.  The sweep runs only when a
        # contracted edge descends in least-member order: with b < a and
        # a, c identified, the class [b] lies below the class [a].
        calls = []

        def counted(adj):
            calls.append(len(adj))
            return topo_order(adj)

        monkeypatch.setattr(dualfix.fixpoint, "topo_order", counted)
        cases = [
            (["x1", "x10", "x2"], [("x1", "x10"), ("x1", "x2")], None, []),
            (["x1", "x2", "x20"], [("x1", "x2"), ("x2", "x20")], None, []),
            (["x1", "x10", "x2"], [("x1", "x2")], None, []),
            (["a", "b", "c"], [("b", "a")], {"a": "a", "b": "b", "c": "a"}, [2]),
        ]
        for elements, pairs, table, swept in cases:
            base = build_poset(elements, pairs)
            phi = MonotoneMap.identity(base) if table is None else is_monotone(table, base, base)
            del calls[:]
            TestCoequalizerGeneral._assert_matches_closure_construction(phi)
            assert calls == swept
            for phi in monotone_selfmaps(base):
                TestCoequalizerGeneral._assert_matches_closure_construction(phi)

    def test_counts_match_the_brute_force_with_identifiers_below_the_bracket(self):
        # identifiers over digits, '-' and ' ', which sort below ']', so that
        # prefixes of one another are frequent
        rng = random.Random(151)
        alphabet = "a0-1 9"
        for _ in range(80):
            n = rng.randrange(0, 7)
            ids = set()
            while len(ids) < n:
                ids.add("".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 4))))
            ids = sorted(ids)
            shuffled = rng.sample(ids, n)
            pairs = [(shuffled[i], shuffled[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            base = build_poset(ids, pairs)
            lat = ideal_lattice(base)
            for phi in (MonotoneMap.identity(base), random_monotone_between(rng, base, base)):
                hom = hom_from_dual(phi, lat, lat)
                brute = bruteforce_fixpoints(hom)
                fx = fixpoints_via_duality(phi)
                assert fx.count() == len(brute)
                assert sorted(m.name for m in fx.iter_members()) == sorted(brute)
                # the same endomorphism with lattice elements renamed to such
                # identifiers, through hom_quotient
                names = set()
                while len(names) < len(lat):
                    names.add("".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 5))))
                rename = dict(zip(lat.elements, sorted(names, key=lambda _: rng.random())))
                renamed = lattice_from_order(build_poset(
                    sorted(names), [(rename[x], rename[y]) for x, y in lat.order.covers()]
                ))
                h = is_homomorphism({rename[x]: rename[y] for x, y in hom.table.items()}, renamed, renamed)
                assert count_ideals(hom_quotient(h).class_poset) == len(brute)


class TestFixpointsViaDuality:
    def test_chain_collapse_frozen(self, two_chain):
        fx = fixpoints_via_duality(collapse_phi(two_chain))
        assert [m.name for m in fx.iter_members()] == ["{}", "{p,q}"]
        # {p} is correctly excluded: the induced endomorphism sends it to {}
        hom = hom_from_dual(collapse_phi(two_chain))
        assert hom("{p}") == "{}"

    def test_antichain_swap_frozen(self, two_antichain):
        phi = is_monotone({"a": "b", "b": "a"}, two_antichain, two_antichain)
        fx = fixpoints_via_duality(phi)
        assert [m.name for m in fx.iter_members()] == ["{}", "{a,b}"]

    def test_identity_fixes_every_ideal(self):
        rng = random.Random(89)
        for _ in range(10):
            base = random_poset(rng, rng.randrange(0, 6))
            fx = fixpoints_via_duality(MonotoneMap.identity(base))
            assert [m.name for m in fx.iter_members()] == [
                i.name for i in all_ideals(base)
            ]

    def test_count_never_builds_members(self, two_antichain):
        phi = MonotoneMap.identity(two_antichain)
        assert fixpoints_via_duality(phi).count() == 4

    def test_members_against_bruteforce_exhaustive_small(self):
        for base in noniso_posets_upto(3):
            lat = ideal_lattice(base)
            for phi in monotone_selfmaps(base):
                dual = sorted(m.name for m in fixpoints_via_duality(phi).iter_members())
                brute = sorted(bruteforce_fixpoints(hom_from_dual(phi, lat, lat)))
                assert dual == brute

    def test_members_against_bruteforce_random_medium(self):
        rng = random.Random(97)
        for _ in range(60):
            base = random_poset(rng, rng.randrange(0, 9))
            phi = random_monotone_between(rng, base, base)
            lat = ideal_lattice(base)
            dual = sorted(m.name for m in fixpoints_via_duality(phi).iter_members())
            brute = sorted(bruteforce_fixpoints(hom_from_dual(phi, lat, lat)))
            assert dual == brute

    def test_union_map_is_injective_and_order_preserving(self):
        rng = random.Random(101)
        for _ in range(25):
            base = random_poset(rng, rng.randrange(0, 7))
            phi = random_monotone_between(rng, base, base)
            fx = fixpoints_via_duality(phi)
            quo = fx.quotient
            pairs = []
            for qmask in iter_ideal_masks(quo.class_poset):
                union = 0
                for c in range(len(quo)):
                    if qmask >> c & 1:
                        union |= quo.member_masks[c]
                pairs.append((qmask, union))
            unions = [u for _, u in pairs]
            assert len(set(unions)) == len(unions)
            assert fx.count() == len(unions)
            for qa, ua in pairs:
                for qb, ub in pairs:
                    assert (qa & ~qb == 0) == (ua & ~ub == 0)

    def test_members_form_a_sublattice_with_bounds(self):
        rng = random.Random(103)
        for _ in range(25):
            base = random_poset(rng, rng.randrange(0, 7))
            phi = random_monotone_between(rng, base, base)
            members = {m.mask for m in fixpoints_via_duality(phi).iter_members()}
            assert 0 in members
            assert (1 << len(base)) - 1 in members
            for a in members:
                for b in members:
                    assert a & b in members
                    assert a | b in members

    def test_source_hom_materializes(self, two_chain):
        fx = fixpoints_via_duality(collapse_phi(two_chain))
        lat = ideal_lattice(two_chain)
        hom = hom_from_dual(fx.phi, lat, lat)
        assert hom.table == {"{}": "{}", "{p}": "{}", "{p,q}": "{p,q}"}

    def test_the_poset_path_leaves_the_base_unclosed(self):
        # The fixpoints command's three modes read only generating edges of
        # the base; the class poset closes its up-sets only for --quotient.
        rng = random.Random(107)
        for _ in range(40):
            p = random_poset(rng, rng.randrange(1, 16))
            doc = {"elements": list(p.elements), "leq": [list(pair) for pair in p.covers()]}
            table = random_monotone_between(rng, p, p).table
            for mode in ("quotient", "count", "list"):
                base = poset_from_obj(doc)
                fx = fixpoints_via_duality(is_monotone(table, base, base))
                if mode == "quotient":
                    quotient_to_obj(fx.quotient)
                elif mode == "count":
                    fx.count()
                else:
                    list(fx.iter_members())
                assert base._up_masks is None and base._down_masks is None
                assert fx.quotient.class_poset._down_masks is None
                if mode != "quotient":
                    assert fx.quotient.class_poset._up_masks is None

    def test_the_class_guard_agrees_with_the_base_on_every_union_of_classes(self):
        # iter_members carries each member's predecessors in its walk row
        # and tests them against the member; on every union of classes,
        # ideal of the quotient or not, the test must agree with the base's
        # own.
        rng = random.Random(109)
        ideals = others = 0
        for _ in range(150):
            p = random_poset(rng, rng.randrange(0, 9))
            doc = {"elements": list(p.elements), "leq": [list(pair) for pair in p.covers()]}
            base = poset_from_obj(doc)
            for phi in (MonotoneMap.identity(base), random_monotone_between(rng, base, base)):
                _, _, _, masks = coequalizer_general(phi)._naming()
                for union, verdict in _carried_verdicts(base, masks):
                    assert verdict == base.is_down_closed(union)
                    ideals += verdict
                    others += not verdict
        assert ideals > 1000 and others > 1000

    def test_the_class_guard_agrees_with_the_base_when_names_sort_unlike_least_members(self):
        # When names sort unlike least members ("[c10]" < "[c1]") the
        # classes come in name order, and the rows are built in that order
        # from the member masks; the verdicts must be the base's on every
        # union of classes, and the members those of the quotient ideals.
        rng = random.Random(233)
        permuted = 0
        for _ in range(150):
            p = random_poset(rng, rng.randrange(0, 9))
            names = [f"c{k}" for k in rng.sample(range(1, 13), len(p))]
            rename = dict(zip(p.elements, names))
            base = build_poset(sorted(names), [(rename[x], rename[y]) for x, y in p.covers()])
            for phi in (MonotoneMap.identity(base), random_monotone_between(rng, base, base)):
                quo = coequalizer_general(phi)
                _, _, _, masks = quo._naming()
                permuted += list(masks) != sorted(masks, key=lambda m: m & -m)
                for union, verdict in _carried_verdicts(base, masks):
                    assert verdict == base.is_down_closed(union)
                assert [m.mask for m in fixpoints_via_duality(phi).iter_members()] == union_member_masks(quo)
        assert permuted > 50

    def test_the_class_guard_needs_a_partition(self, three_chain):
        for masks in ((1, 2), (1, 3, 4), (1, 2, 4, 4)):
            with pytest.raises(RuntimeError, match="do not partition"):
                _guard_rows(three_chain, masks)

    def test_empty_poset_has_single_fixpoint(self):
        base = build_poset([], [])
        fx = fixpoints_via_duality(MonotoneMap.identity(base))
        assert [m.name for m in fx.iter_members()] == ["{}"]


class TestCarriedGuardAgainstClosure:
    # The check iter_members carries along the ideal walk, against the
    # closed down-sets of the base, on every union of classes and on the
    # members listed, with the classes' masks as named and permuted.  A
    # permutation keeps a partition but breaks the class order: the walk
    # then reaches unions that are not down-closed, and iter_members must
    # list exactly the unions before the first of them and then raise.
    @staticmethod
    def _check(phi, rng, permutations):
        base = phi.domain
        quo = coequalizer_general(phi)
        names, classes, order, masks = quo._naming()
        failed = 0
        for perm in [masks] + [tuple(rng.sample(masks, len(masks))) for _ in range(permutations)]:
            for union, verdict in _carried_verdicts(base, perm):
                assert verdict == closure_is_down_closed(base, union)
            expected, bad = [], None
            for qmask in iter_ideal_masks(order):
                union = reduce(or_, [m for c, m in enumerate(perm) if qmask >> c & 1], 0)
                if not closure_is_down_closed(base, union):
                    bad = union
                    break
                expected.append(union)
            quo._named = names, classes, order, perm
            listed = []
            with pytest.raises(RuntimeError) if bad is not None else contextlib.nullcontext() as caught:
                for member in FixpointLattice(phi, quo).iter_members():
                    listed.append(member.mask)
            assert listed == expected
            if bad is not None:
                assert str(caught.value) == f"fix-point {list(base.ids_from(bad))} is not down-closed in the base"
                failed += 1
        return failed

    def test_every_poset_of_at_most_five_elements_with_the_identity(self):
        rng = random.Random(311)
        failed = sum(self._check(MonotoneMap.identity(p), rng, 3) for p in noniso_posets_upto(5))
        assert failed > 100

    def test_every_monotone_self_map_of_at_most_four_elements(self):
        rng = random.Random(313)
        failed = sum(self._check(phi, rng, 1) for p in noniso_posets_upto(4) for phi in monotone_selfmaps(p))
        assert failed > 100

    def test_seeded_posets_whose_names_sort_unlike_least_members(self):
        rng = random.Random(317)
        failed = 0
        for _ in range(60):
            p = random_poset(rng, rng.randrange(1, 9))
            names = [f"c{k}" for k in rng.sample(range(1, 13), len(p))]
            rename = dict(zip(p.elements, names))
            base = build_poset(sorted(names), [(rename[x], rename[y]) for x, y in p.covers()])
            for phi in (MonotoneMap.identity(base), random_monotone_between(rng, base, base)):
                failed += self._check(phi, rng, 2)
        assert failed > 50


class TestAlgorithm1:
    @pytest.fixture
    def collapse_on_three_chain(self, three_chain):
        lat = lattice_from_order(three_chain)
        return is_homomorphism({"0": "0", "m": "0", "1": "1"}, lat, lat)

    def test_empty_ideal_gives_bottom(self, collapse_on_three_chain):
        assert algorithm1(collapse_on_three_chain, []) == "0"

    def test_full_ideal_gives_top(self, collapse_on_three_chain):
        quo = hom_quotient(collapse_on_three_chain)
        assert len(quo) == 1
        assert algorithm1(collapse_on_three_chain, quo.class_poset.elements, quotient=quo) == "1"

    def test_identity_selects_each_element(self, three_chain):
        lat = lattice_from_order(three_chain)
        ident = LatticeHom.identity(lat)
        quo = hom_quotient(ident)
        assert algorithm1(ident, ["[m]"], quotient=quo) == "m"

    def test_accepts_order_ideal_objects(self, collapse_on_three_chain):
        quo = hom_quotient(collapse_on_three_chain)
        ideal = OrderIdeal(quo.class_poset, quo.class_poset.elements)
        assert algorithm1(collapse_on_three_chain, ideal, quotient=quo) == "1"

    def test_rejects_non_ideals(self, three_chain):
        lat = lattice_from_order(three_chain)
        ident = LatticeHom.identity(lat)
        quo = hom_quotient(ident)
        # the quotient of the identity is a 2-chain of classes; its top alone
        # is not down-closed
        with pytest.raises(NotAnIdealOfC):
            algorithm1(ident, ["[1]"], quotient=quo)

    def test_enumerates_exactly_the_bruteforce_fixpoints(self):
        rng = random.Random(107)
        for _ in range(20):
            base = random_poset(rng, rng.randrange(0, 5))
            lat = ideal_lattice(base)
            phi = random_monotone_between(rng, base, base)
            hom = hom_from_dual(phi, lat, lat)
            quo = hom_quotient(hom)
            got = sorted(
                algorithm1(hom, quo.class_poset.ids_from(qmask), quotient=quo)
                for qmask in iter_ideal_masks(quo.class_poset)
            )
            assert got == sorted(bruteforce_fixpoints(hom))
            for x in got:
                assert hom(x) == x


class TestHomQuotient:
    def test_matches_the_lift_hom_route(self):
        # differential: dualizing the stored representation directly, with
        # base points renamed to irreducibles, against the old route through
        # lift_hom; class names included
        rng = random.Random(113)
        for _ in range(60):
            base = random_poset(rng, rng.randrange(0, 6))
            ideals = ideal_lattice(base)
            hom = hom_from_dual(random_monotone_between(rng, base, base), ideals, ideals)
            lat = lattice_from_order(ideals.order)
            for h in (hom, is_homomorphism(hom.table, lat, lat)):
                _, lifted = lift_hom(h)
                assert hom_quotient(h) == phi_components(dual_map(lifted))


class TestBruteforceFixpoints:
    def test_three_chain_collapse(self, three_chain):
        lat = lattice_from_order(three_chain)
        hom = is_homomorphism({"0": "0", "m": "0", "1": "1"}, lat, lat)
        assert bruteforce_fixpoints(hom) == ("0", "1")

    def test_boolean_square_swap(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        hom = is_homomorphism(
            {"{}": "{}", "{a}": "{b}", "{b}": "{a}", "{a,b}": "{a,b}"}, lat, lat
        )
        assert bruteforce_fixpoints(hom) == ("{a,b}", "{}")

    def test_identity_fixes_everything(self, three_chain):
        lat = lattice_from_order(three_chain)
        assert bruteforce_fixpoints(LatticeHom.identity(lat)) == lat.elements


class TestKleeneIterate:
    def test_bottom_is_fixed_immediately(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        hom = is_homomorphism(
            {"{}": "{}", "{a}": "{b}", "{b}": "{a}", "{a,b}": "{a,b}"}, lat, lat
        )
        assert kleene_iterate(hom, lat.bot, max_steps=0) == "{}"

    def test_three_chain_one_step(self, three_chain):
        lat = lattice_from_order(three_chain)
        hom = is_homomorphism({"0": "0", "m": "0", "1": "1"}, lat, lat)
        assert kleene_iterate(hom, "m") == "0"

    def test_swap_cycles(self, two_antichain):
        lat = ideal_lattice(two_antichain)
        hom = is_homomorphism(
            {"{}": "{}", "{a}": "{b}", "{b}": "{a}", "{a,b}": "{a,b}"}, lat, lat
        )
        assert kleene_iterate(hom, "{a}") == CycleReport(entry="{a}", length=2)

    def test_max_steps_exceeded(self, three_chain):
        lat = lattice_from_order(three_chain)
        # a monotone, non-homomorphic walk needs the bypass constructor
        walk = unchecked(LatticeHom, {"0": "m", "m": "1", "1": "1"}, lat, lat)
        with pytest.raises(MaxStepsExceeded):
            kleene_iterate(walk, "0", max_steps=1)
        assert kleene_iterate(walk, "0", max_steps=2) == "1"

    def test_within_lattice_size_always_concludes(self):
        rng = random.Random(109)
        for _ in range(20):
            base = random_poset(rng, rng.randrange(0, 5))
            lat = ideal_lattice(base)
            phi = random_monotone_between(rng, base, base)
            hom = hom_from_dual(phi, lat, lat)
            for start in lat:
                result = kleene_iterate(hom, start, max_steps=len(lat))
                if isinstance(result, CycleReport):
                    assert result.length >= 2
                else:
                    assert hom(result) == result

"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s``).  The exhaustive sweeps run over one representative per poset
isomorphism class, since every property checked is invariant under
relabeling.
"""

import json
import random
import time

import pytest

from dualfix import (
    QuotientNotAntisymmetric,
    bruteforce_fixpoints,
    coequalizer_general,
    dual_map,
    fixpoints_via_duality,
    hom_from_dual,
    ideal_lattice,
    iter_ideal_masks,
    join_irreducibles,
    phi_components,
)
from dualfix.cli import main
from dualfix.jsonio import map_to_obj, poset_to_obj, quotient_to_obj
from helpers import (
    birkhoff_eta,
    monotone_selfmaps,
    noniso_posets_upto,
    random_monotone_between,
    random_poset,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" — {detail}" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{tail}")


class Instance:
    __slots__ = ("base", "phi", "quotient", "member_masks", "dual_names", "brute_names", "ideal_pairs", "components", "components_error")

    def __init__(self, base, phi):
        self.base = base
        self.phi = phi
        fx = fixpoints_via_duality(phi)
        self.quotient = fx.quotient
        members = list(fx.iter_members())
        self.member_masks = [m.mask for m in members]
        self.dual_names = sorted(m.name for m in members)
        lat = ideal_lattice(base)
        self.brute_names = sorted(bruteforce_fixpoints(hom_from_dual(phi, lat, lat)))
        self.ideal_pairs = []
        for qmask in iter_ideal_masks(self.quotient.class_poset):
            union = 0
            for c in range(len(self.quotient)):
                if qmask >> c & 1:
                    union |= self.quotient.member_masks[c]
            self.ideal_pairs.append((qmask, union))
        self.components = None
        self.components_error = None
        try:
            self.components = phi_components(phi)
        except QuotientNotAntisymmetric as exc:
            self.components_error = exc


@pytest.fixture(scope="module")
def sweep():
    """Every monotone self-map on every poset with at most 4 elements."""
    start = time.perf_counter()
    instances = []
    for base in noniso_posets_upto(4):
        for phi in monotone_selfmaps(base):
            instances.append(Instance(base, phi))
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_1_fixpoint_oracle_equivalence(sweep):
    instances, elapsed = sweep
    mismatches = [i for i in instances if i.dual_names != i.brute_names]
    ok = not mismatches and elapsed < 60.0
    _report(
        1,
        "dual fix-points equal brute force, exhaustive size <= 4",
        ok,
        f"{len(instances)} instances, {len(mismatches)} mismatches, {elapsed:.2f}s",
    )
    assert not mismatches
    assert elapsed < 60.0


def test_criterion_2_birkhoff_isomorphism():
    rng = random.Random(20260809)
    violations = 0
    checked = 0
    for _ in range(200):
        base = random_poset(rng, rng.randrange(1, 9))
        lat = ideal_lattice(base)
        eta = birkhoff_eta(lat)
        irr = join_irreducibles(lat)
        masks = [eta[x].mask for x in lat.elements]
        bijective = len(set(masks)) == len(lat) and len(lat) == sum(
            1 for _ in iter_ideal_masks(irr)
        )
        full = 0
        for k in range(len(irr)):
            full |= 1 << k
        structure = (
            eta[lat.bot].mask == 0
            and eta[lat.top].mask == full
            and all(
                eta[lat.meet(x, y)].mask == eta[x].mask & eta[y].mask
                and eta[lat.join(x, y)].mask == (eta[x].mask | eta[y].mask)
                and lat.leq(x, y) == (eta[x].mask & ~eta[y].mask == 0)
                for x in lat.elements
                for y in lat.elements
            )
        )
        if not (bijective and structure):
            violations += 1
        checked += 1
    _report(2, "irreducible-ideal map is an isomorphism, 200 random posets", violations == 0,
            f"{checked} posets, {violations} violations")
    assert violations == 0


def test_criterion_3_round_trips():
    violations = 0
    count_a = count_b = 0
    for base in noniso_posets_upto(5):
        lat = ideal_lattice(base)
        for phi in monotone_selfmaps(base):
            count_a += 1
            if dual_map(hom_from_dual(phi, lat, lat)) != phi:
                violations += 1
    for base in noniso_posets_upto(4):
        lat = ideal_lattice(base)
        for phi in monotone_selfmaps(base):
            # by the duality, this ranges over every endomorphism of the
            # ideal lattice exactly once
            hom = hom_from_dual(phi, lat, lat)
            count_b += 1
            if hom_from_dual(dual_map(hom), lat, lat) != hom:
                violations += 1
    _report(3, "map duality round trips, exhaustive sizes 5 and 4", violations == 0,
            f"{count_a} + {count_b} round trips, {violations} violations")
    assert violations == 0


def test_criterion_4_fixpoints_form_bounded_sublattice(sweep):
    instances, _ = sweep
    violations = 0
    for inst in instances:
        members = set(inst.member_masks)
        full = (1 << len(inst.base)) - 1
        if 0 not in members or full not in members:
            violations += 1
            continue
        if any(a & b not in members or a | b not in members for a in members for b in members):
            violations += 1
    _report(4, "fix-points contain bounds and are closed under meet/join", violations == 0,
            f"{len(instances)} instances, {violations} violations")
    assert violations == 0


def test_criterion_5_quotient_ideal_isomorphism(sweep):
    instances, _ = sweep
    violations = 0
    for inst in instances:
        unions = [u for _, u in inst.ideal_pairs]
        if len(set(unions)) != len(unions) or len(unions) != len(inst.member_masks):
            violations += 1
            continue
        if any(
            (qa & ~qb == 0) != (ua & ~ub == 0)
            for qa, ua in inst.ideal_pairs
            for qb, ub in inst.ideal_pairs
        ):
            violations += 1
    _report(5, "fix-point lattice is isomorphic to the quotient's ideals", violations == 0,
            f"{len(instances)} instances, {violations} violations")
    assert violations == 0


def test_criterion_6_quotient_construction_agreement(sweep, tmp_path):
    instances, _ = sweep
    disagreements = []
    for inst in instances:
        if inst.components_error is not None or inst.components != inst.quotient:
            disagreements.append((inst.base, inst.phi, inst.components, inst.quotient, inst.components_error))
    rng = random.Random(1729)
    random_checked = 0
    for _ in range(1000):
        base = random_poset(rng, rng.randrange(0, 11))
        phi = random_monotone_between(rng, base, base)
        coeq = coequalizer_general(phi)
        try:
            comp = phi_components(phi)
            if comp != coeq:
                disagreements.append((base, phi, comp, coeq, None))
        except QuotientNotAntisymmetric as exc:
            disagreements.append((base, phi, None, coeq, exc))
        random_checked += 1
    if disagreements:
        base, phi, comp, coeq, err = disagreements[0]
        artifact = tmp_path / "quotient_counterexample.json"
        artifact.write_text(json.dumps({
            "poset": poset_to_obj(base),
            "phi": map_to_obj(phi.table),
            "components": quotient_to_obj(comp) if comp is not None else repr(err),
            "coequalizer": quotient_to_obj(coeq),
        }, indent=2))
        print(f"[acceptance] counterexample artifact: {artifact}")
    _report(6, "component shortcut equals general co-equalizer", not disagreements,
            f"{len(instances)} exhaustive + {random_checked} random instances, {len(disagreements)} disagreements")
    assert not disagreements


def test_criterion_7_dual_side_performance(capsys):
    code = main(["bench", "--shape", "antichain", "--n", "1000", "--map-kind", "permutation"])
    big = json.loads(capsys.readouterr().out)
    assert code == 0
    quotient_seconds = big["components_seconds"] + big["coequalizer_seconds"]
    ok_big = (
        quotient_seconds < 5.0
        and big["classes"] == 500
        and big["primal_count"] == "skipped (primal side infeasible)"
    )

    code = main(["bench", "--shape", "antichain", "--n", "20", "--map-kind", "identity"])
    small = json.loads(capsys.readouterr().out)
    ok_small = (
        code == 0
        and small["dual_count"] == 1048576
        and small["primal_count"] == 1048576
        and small["counts_agree"] is True
    )
    _report(7, "quotient construction scales; count cross-check exact", ok_big and ok_small,
            f"n=1000 quotient in {quotient_seconds:.3f}s, n=20 count {small['dual_count']}")
    assert ok_big, big
    assert ok_small, small

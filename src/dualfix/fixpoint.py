"""Fix-point lattices of ideal-lattice endomorphisms, computed poset-side.

The dual map's graph is quotiented into a poset of classes; unioning the
classes of each quotient ideal gives back exactly the fixed ideals of the
base, so the whole fix-point lattice is read off without ever iterating the
endomorphism or materializing its lattice.  The number of fix-points is the
quotient's ideal count, which ``count_ideals`` computes without listing them.

There is one quotient construction, ``coequalizer_general``: one
strongly-connected-component pass over the base's generating edges plus
both directions of the map edges, which always yields a partial order.
``phi_components`` is a check on it: it returns that quotient when its
classes are exactly the connected components of the undirected map graph,
and raises QuotientNotAntisymmetric when some class holds two of them,
which only a map that is not monotone can cause.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitgraph import bits, tarjan_scc
from .duality import dual_map
from .errors import MaxStepsExceeded, NotAnIdealOfC, QuotientNotAntisymmetric, SizeBoundExceeded
from .lattice import LatticeHom, _irreducibles, explicit_lattice_bound
from .poset import MonotoneMap, OrderIdeal, Poset, _generated_poset, count_ideals, iter_ideal_masks


class QuotientPoset:
    """Partition of a poset into classes carrying an induced partial order.

    ``classes`` lists each class's member identifiers; ``class_poset`` is
    the order on class names (a class is named ``[x]`` after its least
    member).  The generating preorder is recoverable: x is below y in it
    exactly when class_leq([x], [y]).
    """

    __slots__ = ("base", "classes", "class_poset", "member_masks", "_class_idx")

    def __init__(self, base, classes, class_poset, member_masks, class_idx):
        self.base = base
        self.classes = classes
        self.class_poset = class_poset
        self.member_masks = member_masks
        self._class_idx = class_idx

    def __len__(self):
        return len(self.classes)

    def class_name_of(self, x) -> str:
        return self.class_poset.elements[self._class_idx[self.base.index(x)]]

    def class_leq(self, c1, c2) -> bool:
        return self.class_poset.leq(c1, c2)

    def __eq__(self, other):
        if not isinstance(other, QuotientPoset):
            return NotImplemented
        return (
            self.base == other.base
            and self.classes == other.classes
            and self.class_poset == other.class_poset
        )

    __hash__ = None

    def __repr__(self):
        return f"QuotientPoset({len(self.classes)} classes over {len(self.base)} elements)"


def _endo_base(phi: MonotoneMap) -> Poset:
    if not phi.is_endo():
        raise ValueError("quotient construction expects a self-map")
    return phi.domain


def _canonical_classes(base, groups):
    """Order classes by least member; return (names, member_masks, class_idx)."""
    ordered = sorted(groups, key=lambda g: g[0])
    names = []
    masks = []
    class_idx = [0] * len(base)
    for ci, group in enumerate(ordered):
        names.append(f"[{base.elements[group[0]]}]")
        mask = 0
        for v in group:
            mask |= 1 << v
            class_idx[v] = ci
        masks.append(mask)
    return names, tuple(masks), class_idx


def _with_map_edges(phi: MonotoneMap, rows) -> list:
    """Successor masks ``rows`` plus every map edge x -> phi(x), both ways."""
    adj = list(rows)
    for i, j in enumerate(phi.image):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def phi_components(phi: MonotoneMap) -> QuotientPoset:
    """The coequalizer, checked to be the quotient by map components.

    The connected components of the undirected map graph are the strongly
    connected parts of the map edges taken both ways.  Each lies inside one
    class of ``coequalizer_general``, and the base order pushed onto the
    components is antisymmetric exactly when no class holds two of them,
    that is when there are as many components as classes; then the two
    quotients coincide and the coequalizer is returned.
    Otherwise QuotientNotAntisymmetric names, among the components sorted
    by least member, the first one that shares a class with an earlier one,
    after the earliest component of that class.
    """
    quotient = coequalizer_general(phi)
    _check_components(phi, quotient)
    return quotient


def _check_components(phi: MonotoneMap, quotient: QuotientPoset):
    """Raise QuotientNotAntisymmetric, as :func:`phi_components` documents,
    when some class of the coequalizer ``quotient`` of phi holds two
    connected components of the undirected map graph."""
    names = phi.domain.elements
    comps = tarjan_scc(_with_map_edges(phi, [0] * len(names)))
    first = {}
    for least in sorted(min(comp) for comp in comps):
        c = quotient._class_idx[least]
        if c in first:
            raise QuotientNotAntisymmetric(f"[{names[first[c]]}]", f"[{names[least]}]")
        first[c] = least


def coequalizer_general(phi: MonotoneMap) -> QuotientPoset:
    """Quotient by the smallest preorder extending the order with x = phi(x).

    Classes are the strongly connected parts of that preorder (x and y
    identified when each reaches the other); the class order is its
    condensation, which is a partial order by construction.  One Tarjan
    pass over the base's generating edges plus both directions of the map
    edges finds the classes; the base edges between classes generate the
    class order, with the emission order as its ``order``.
    """
    base = _endo_base(phi)
    comps = tarjan_scc(_with_map_edges(phi, base.gen_masks))
    names, member_masks, class_idx = _canonical_classes(base, [sorted(c) for c in comps])
    gen = [0] * len(names)
    for v, succ in enumerate(base.gen_masks):
        c = class_idx[v]
        row = 0
        for w in bits(succ):
            row |= 1 << class_idx[w]
        gen[c] |= row & ~(1 << c)
    class_poset = _generated_poset(names, gen, [class_idx[comp[0]] for comp in comps])
    classes = tuple(base.ids_from(mask) for mask in member_masks)
    return QuotientPoset(base, classes, class_poset, member_masks, class_idx)


class FixpointLattice:
    """All fix-points of the endomorphism induced by a monotone self-map.

    Members are the unions of quotient-ideal classes, streamed in the
    canonical ideal order of the quotient; each one is re-checked to be
    down-closed in the base on emission.  The member count equals the
    quotient's ideal count, so ``count`` takes it from the frontier DP of
    ``count_ideals`` and never builds the members.
    """

    __slots__ = ("phi", "quotient", "_members")

    def __init__(self, phi: MonotoneMap, quotient: QuotientPoset):
        self.phi = phi
        self.quotient = quotient
        self._members = None

    def iter_members(self):
        base = self.quotient.base
        masks = self.quotient.member_masks
        for qmask in iter_ideal_masks(self.quotient.class_poset):
            union = 0
            for c in bits(qmask):
                union |= masks[c]
            yield OrderIdeal(base, union)

    def count(self, max_count=None) -> int:
        return count_ideals(self.quotient.class_poset, max_count)

    @property
    def members(self) -> tuple:
        if self._members is None:
            self._members = tuple(self.iter_members())
        return self._members

    def __repr__(self):
        return f"FixpointLattice(quotient of {len(self.quotient)} classes)"


def fixpoints_via_duality(phi: MonotoneMap) -> FixpointLattice:
    """Fix-point lattice of the endomorphism induced by a monotone self-map.

    Runs entirely on the poset side via the authoritative quotient
    construction; no ideal lattice is materialized.
    """
    return FixpointLattice(phi, coequalizer_general(phi))


def hom_quotient(hom: LatticeHom) -> QuotientPoset:
    """Quotient for an explicit endomorphism: dualize, then quotient.

    The quotient is over the join-irreducibles of the domain, named as
    lattice elements: base point x of the Birkhoff representation becomes
    the element whose ideal is the down-set of x.
    """
    phi = dual_map(hom)
    irr, pos = _irreducibles(hom.domain)
    image = [0] * len(irr)
    for x, y in enumerate(phi.image):
        image[pos[x]] = pos[y]
    return coequalizer_general(MonotoneMap(irr, irr, image))


def algorithm1(hom: LatticeHom, ideal, quotient=None):
    """Fix-point of an explicit endomorphism selected by a quotient ideal.

    ``ideal`` is an OrderIdeal of the quotient's class poset (or an iterable
    of class names, checked for down-closure).  The union of its classes is
    a set of join-irreducibles of the domain; their join is returned.  The
    empty ideal gives bottom, the full one gives top.
    """
    if not hom.is_endo():
        raise ValueError("algorithm1 expects an endomorphism")
    lat = hom.domain
    quo = quotient if quotient is not None else hom_quotient(hom)
    if isinstance(ideal, OrderIdeal):
        if ideal.carrier != quo.class_poset:
            raise NotAnIdealOfC(ideal.members)
        qmask = ideal.mask
    else:
        names = list(ideal)
        qmask = quo.class_poset.mask_from(names)
        if not quo.class_poset.is_down_closed(qmask):
            raise NotAnIdealOfC(names)
    out = 0
    for c in bits(qmask):
        for i in bits(quo.member_masks[c]):
            out |= lat.element_masks[lat.index(quo.base.elements[i])]
    return lat.elements[lat.ideal_index(out)]


def bruteforce_fixpoints(hom: LatticeHom) -> tuple:
    """Fixed elements of an explicit endomorphism, by exhaustive scan.

    The oracle the dual route is judged against: independent of quotients,
    duals and ideal streaming.
    """
    if not hom.is_endo():
        raise ValueError("fix-points need an endomorphism")
    bound = explicit_lattice_bound()
    if len(hom.domain) > bound:
        raise SizeBoundExceeded(bound, f"lattice has {len(hom.domain)} elements")
    return tuple(x for i, x in enumerate(hom.domain.elements) if hom.image[i] == i)


@dataclass(frozen=True)
class CycleReport:
    """A closed orbit hit by iteration: its entry element and length."""

    entry: str
    length: int


def kleene_iterate(hom: LatticeHom, start, max_steps=None):
    """Iterate x -> f(x) from ``start`` until fixed or a cycle closes.

    Returns the fix-point element, or a CycleReport if the walk re-enters a
    previously seen element.  One of the two happens within |L| steps, so
    MaxStepsExceeded can only fire when ``max_steps`` is set below that.
    """
    if not hom.is_endo():
        raise ValueError("iteration needs an endomorphism")
    lat = hom.domain
    i = lat.index(start)
    seen = {i: 0}
    steps = 0
    while True:
        j = hom.image[i]
        if j == i:
            return lat.elements[i]
        steps += 1
        if max_steps is not None and steps > max_steps:
            raise MaxStepsExceeded(f"no fix-point or cycle within {max_steps} steps")
        if j in seen:
            return CycleReport(entry=lat.elements[j], length=steps - seen[j])
        seen[j] = steps
        i = j

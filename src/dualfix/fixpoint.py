"""Fix-point lattices of ideal-lattice endomorphisms, computed poset-side.

The dual map's graph is quotiented into a poset of classes; unioning the
classes of each quotient ideal gives back exactly the fixed ideals of the
base, so the whole fix-point lattice is read off without ever iterating the
endomorphism or materializing its lattice.  The number of fix-points is the
quotient's ideal count, which ``count_ideals`` computes without listing them.
An explicit endomorphism takes the same route: the dual it carries maps J,
the join-irreducibles of its lattice, to itself, and a lattice read from an
order has J as its base, so each fixed ideal of J is the ideal of a fixed
element.

There is one quotient construction, ``coequalizer_general``, which always
yields a partial order.  It finds the connected components of the map
graph in one walk along the map and maps the base's generating edges onto
them.  For a monotone map those components are the classes and the
contracted edges are acyclic, so the class indices from the largest down
order them when every contracted edge ascends, one depth-first sweep
orders them otherwise, and no strongly-connected-component pass runs;
only a cycle, which a map that is not monotone can close, calls Tarjan's
algorithm to merge components.
``phi_components`` is a check on it: it returns that quotient when its
classes are exactly the connected components of the undirected map graph,
and raises QuotientNotAntisymmetric when some class holds two of them.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .bitgraph import bits, mask_of, tarjan_scc, topo_order
from .errors import QuotientNotAntisymmetric
from .poset import MonotoneMap, OrderIdeal, Poset, _generated_poset, _ideal_walk, count_ideals


class QuotientPoset:
    """Partition of a poset into classes carrying an induced partial order.

    Classes are indexed by least member: ``groups[c]`` lists the base
    indices of class c ascending, ``_class_idx`` maps each base index to
    its class, and ``graph`` is the class order on the identifiers of the
    least members (the base itself when every class is one point), which
    is all a count reads.  A class is named ``[x]`` after its least member
    x.  ``classes`` (member identifiers), ``member_masks`` and
    ``class_poset``, the order on class names, are built on first read, in
    name order.  The generating preorder is recoverable: x is below y in it
    exactly when class_leq([x], [y]).
    """

    __slots__ = ("base", "groups", "_masks", "_class_idx", "graph", "_named", "_class_poset")

    def __init__(self, base, groups, masks, class_idx, graph):
        self.base = base
        self.groups = groups
        self._masks = masks
        self._class_idx = class_idx
        self.graph = graph
        self._named = self._class_poset = None

    def _naming(self):
        """(names, classes, order, member_masks) in name order.  ``order``,
        the class order a walk or the covers read, is the graph itself, the
        base too, on which the covers close nothing, unless names sort
        unlike least members (``"[c10]" < "[c1]"``); then it is the class
        poset, the graph permuted."""
        if self._named is None:
            groups, masks, order = self.groups, self._masks, self.graph
            names = [f"[{x}]" for x in order.elements]
            if names != sorted(names):
                perm = sorted(range(len(names)), key=names.__getitem__)
                rank = sorted(range(len(perm)), key=perm.__getitem__)
                names, groups, masks = ([seq[c] for c in perm] for seq in (names, groups, masks))
                gen = [mask_of(rank[d] for d in bits(order.gen_masks[c])) for c in perm]
                order = self._class_poset = _generated_poset(names, gen, [rank[c] for c in order.order])
            classes = tuple(tuple(map(self.base.elements.__getitem__, group)) for group in groups)
            self._named = names, classes, order, tuple(masks)
        return self._named

    @property
    def class_poset(self):
        names, _, order, _ = self._naming()
        if self._class_poset is None:
            self._class_poset = _generated_poset(names, order.gen_masks, order.order)
        return self._class_poset

    classes = property(lambda self: self._naming()[1])
    member_masks = property(lambda self: self._naming()[3])

    def __len__(self):
        return len(self.groups)

    def class_name_of(self, x) -> str:
        return f"[{self.graph.elements[self._class_idx[self.base.index(x)]]}]"

    def class_leq(self, c1, c2) -> bool:
        return self.class_poset.leq(c1, c2)

    def __eq__(self, other):
        if not isinstance(other, QuotientPoset):
            return NotImplemented
        return self.base == other.base and self._masks == other._masks and self.graph == other.graph

    __hash__ = None

    def __repr__(self):
        return f"QuotientPoset({len(self)} classes over {len(self.base)} elements)"


def _endo_base(phi: MonotoneMap) -> Poset:
    if not phi.is_endo():
        raise ValueError("quotient construction expects a self-map")
    return phi.domain


def _index_classes(groups, n):
    """Class index of each of n points and member mask of each class, for
    classes given as ascending lists of points and listed by least member."""
    class_idx = [0] * n
    masks = []
    for c, group in enumerate(groups):
        mask = 0
        for v in group:
            mask |= 1 << v
            class_idx[v] = c
        masks.append(mask)
    return class_idx, tuple(masks)


def _map_components(image):
    """Connected components of the undirected graph of x -> image[x], each
    an ascending list of points, listed by least member.

    The graph is functional, so a walk along the map from each unlabeled x
    ends on a labeled point, whose component it joins, or closes a cycle
    of its own, which makes x the least member of a new component.  Every
    point is walked once.
    """
    n = len(image)
    comp = [-1] * n
    count = 0
    for x in range(n):
        if comp[x] >= 0:
            continue
        walk = []
        y = x
        while comp[y] == -1:
            comp[y] = -2  # on the current walk
            walk.append(y)
            y = image[y]
        c = comp[y]
        if c < 0:
            c = count
            count += 1
        for y in walk:
            comp[y] = c
    groups = [[] for _ in range(count)]
    for x in range(n):
        groups[comp[x]].append(x)
    return groups


def phi_components(phi: MonotoneMap) -> QuotientPoset:
    """The coequalizer, checked to be the quotient by map components.

    The connected components of the undirected map graph each lie inside
    one class of ``coequalizer_general``, and the base order pushed onto
    the components is antisymmetric exactly when no class holds two of
    them; then the two quotients coincide and the coequalizer is returned.
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
    first = {}
    for group in _map_components(phi.image):
        least = group[0]
        c = quotient._class_idx[least]
        if c in first:
            raise QuotientNotAntisymmetric(f"[{names[first[c]]}]", f"[{names[least]}]")
        first[c] = least


def _contract(gen_masks, class_idx, member_masks):
    """Successor masks of the classes: the edges leaving each class, mapped
    onto the classes they enter, and whether every one of them ascends,
    from a class to one of larger index.  Each target class costs one step,
    however many edges enter it."""
    leaving = [0] * len(member_masks)
    for v, succ in enumerate(gen_masks):
        leaving[class_idx[v]] |= succ
    gen = []
    ascending = True
    for c, rest in enumerate(leaving):
        rest &= ~member_masks[c]
        row = 0
        while rest:
            d = class_idx[(rest & -rest).bit_length() - 1]
            row |= 1 << d
            rest &= ~member_masks[d]
        if row & ((1 << c) - 1):
            ascending = False
        gen.append(row)
    return gen, ascending


def coequalizer_general(phi: MonotoneMap) -> QuotientPoset:
    """Quotient by the smallest preorder extending the order with x = phi(x).

    Classes are the strongly connected parts of that preorder (x and y
    identified when each reaches the other); the class order is its
    condensation, which is a partial order by construction.  Each connected
    component of the map graph lies in one class, so the components are
    found in one walk along the map and the base's generating edges are
    mapped onto them; when the map is the identity, the class order is the
    base itself.  For a monotone map the contracted edges are acyclic, so the
    components are the classes.  When every contracted edge ascends, the
    class indices from the largest down order them, as in
    :func:`~dualfix.poset.build_poset`; otherwise one depth-first sweep
    does.  A cycle, which only a map that is not monotone can close, goes
    to a Tarjan pass over the component graph, and the components of each
    strongly connected part are merged.
    """
    base = _endo_base(phi)
    n = len(base)
    if phi.image == tuple(range(n)):
        groups = [[v] for v in range(n)]
    else:
        groups = _map_components(phi.image)
    class_idx, masks = _index_classes(groups, n)
    if len(groups) == n:
        return QuotientPoset(base, groups, masks, class_idx, base)
    gen, ascending = _contract(base.gen_masks, class_idx, masks)
    order = range(len(gen) - 1, -1, -1) if ascending else topo_order(gen)
    if order is None:
        parts = [reduce(or_, [masks[c] for c in part]) for part in tarjan_scc(gen)]
        groups = sorted(list(bits(m)) for m in parts)
        class_idx, masks = _index_classes(groups, n)
        gen, _ = _contract(base.gen_masks, class_idx, masks)
        order = [class_idx[(m & -m).bit_length() - 1] for m in parts]
    graph = _generated_poset([base.elements[group[0]] for group in groups], gen, order)
    return QuotientPoset(base, groups, masks, class_idx, graph)


class FixpointLattice:
    """All fix-points of the endomorphism induced by a monotone self-map.

    Members are the unions of quotient-ideal classes, streamed in the
    canonical ideal order of the quotient.  The walk carries each union U
    with the generating predecessors P(U) of its points, as one row
    ``U | P(U) << n`` (:func:`_guard_rows`); U is down-closed in the base
    exactly when P(U) lies in it, else emitting it raises RuntimeError.
    The member count equals the quotient's ideal count, so ``count`` takes
    it from the frontier DP of ``count_ideals`` and builds no member.
    """

    __slots__ = ("phi", "quotient")

    def __init__(self, phi: MonotoneMap, quotient: QuotientPoset):
        self.phi = phi
        self.quotient = quotient

    def iter_members(self):
        base = self.quotient.base
        _, _, order, masks = self.quotient._naming()
        n = len(base)
        points = (1 << n) - 1
        for _, _, row in _ideal_walk(order, rows=_guard_rows(base, masks)):
            union = row & points
            if row >> n & ~union:
                raise RuntimeError(f"fix-point {list(base.ids_from(union))} is not down-closed in the base")
            yield OrderIdeal._tested(base, union)

    def count(self, max_count=None) -> int:
        return count_ideals(self.quotient.graph, max_count)

    def __repr__(self):
        return f"FixpointLattice(quotient of {len(self.quotient)} classes)"


def _guard_rows(base: Poset, masks):
    """The walk row ``m | P(m) << n`` of each class of member mask m, on a
    base of n points: P(m) ORs the generating predecessors
    (``Poset.pred_masks``) of m's points, read bit by bit.  So the rows of
    the classes of a quotient ideal OR to ``U | P(U) << n`` for their
    union U, which is down-closed (``Poset.is_down_closed``) exactly when
    ``P(U) & ~U`` is 0.  The ``masks`` must partition the base."""
    n = len(base)
    if sum(m.bit_count() for m in masks) != n or reduce(or_, masks, 0).bit_count() != n:
        raise RuntimeError("the quotient's classes do not partition the base")
    pred = base.pred_masks
    rows = []
    for m in masks:
        below, rest = 0, m
        while rest:
            low = rest & -rest
            below |= pred[low.bit_length() - 1]
            rest ^= low
        rows.append(m | below << n)
    return rows


def fixpoints_via_duality(phi: MonotoneMap) -> FixpointLattice:
    """Fix-point lattice of the endomorphism induced by a monotone self-map.

    Runs entirely on the poset side via the authoritative quotient
    construction; no ideal lattice is materialized.
    """
    return FixpointLattice(phi, coequalizer_general(phi))


def bruteforce_fixpoints(hom) -> tuple:
    """Fixed elements of an explicit endomorphism, by exhaustive scan.

    The oracle the dual route is judged against: independent of quotients,
    duals and ideal streaming.
    """
    if not hom.is_endo():
        raise ValueError("fix-points need an endomorphism")
    return tuple(x for i, x in enumerate(hom.domain.elements) if hom.image[i] == i)

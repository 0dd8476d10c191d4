"""Explicit finite distributive lattices and their homomorphisms.

Explicit lattices exist for validation and small-scale oracles; production
fix-point computation stays on the poset side, so the element count is
capped (BIRKHOFF_MAX_LATTICE overrides the default of 4096).
"""

from __future__ import annotations

import os
from array import array

from .bitgraph import bits
from .errors import NotALattice, NotDistributive, NotHom, SizeBoundExceeded
from .poset import OrderIdeal, Poset, _total_image, count_ideals, iter_ideal_masks

DEFAULT_MAX_LATTICE = 4096
MAX_LATTICE_ENV = "BIRKHOFF_MAX_LATTICE"


def explicit_lattice_bound(override=None) -> int:
    """Element cap for materialized lattices."""
    if override is not None:
        return override
    raw = os.environ.get(MAX_LATTICE_ENV)
    if raw:
        bound = int(raw)
        if bound <= 0:
            raise ValueError(f"{MAX_LATTICE_ENV} must be positive, got {raw!r}")
        return bound
    return DEFAULT_MAX_LATTICE


class FiniteLattice:
    """A finite lattice: carrier poset, meet/join tables, bottom and top.

    Instances come from the validating constructors below and are immutable.
    For ideal lattices, ``ideal_base`` is the poset the elements are ideals
    of and ``element_masks`` ties each element to its member bitmask.
    """

    __slots__ = ("order", "_meet", "_join", "bot_idx", "top_idx", "ideal_base", "element_masks", "_mask_index")

    def __init__(self, order, meet, join, bot_idx, top_idx, ideal_base=None, element_masks=None):
        self.order = order
        self._meet = meet  # flat array('i'), row-major
        self._join = join
        self.bot_idx = bot_idx
        self.top_idx = top_idx
        self.ideal_base = ideal_base
        self.element_masks = element_masks
        self._mask_index = None
        if element_masks is not None:
            self._mask_index = {m: i for i, m in enumerate(element_masks)}

    @property
    def elements(self):
        return self.order.elements

    @property
    def bot(self):
        return self.order.elements[self.bot_idx]

    @property
    def top(self):
        return self.order.elements[self.top_idx]

    def __len__(self):
        return len(self.order)

    def __iter__(self):
        return iter(self.order.elements)

    def index(self, x):
        return self.order.index(x)

    def leq(self, x, y):
        return self.order.leq(x, y)

    def meet_idx(self, i, j):
        return self._meet[i * len(self.order) + j]

    def join_idx(self, i, j):
        return self._join[i * len(self.order) + j]

    def meet(self, x, y):
        return self.elements[self.meet_idx(self.index(x), self.index(y))]

    def join(self, x, y):
        return self.elements[self.join_idx(self.index(x), self.index(y))]

    def ideal_index(self, mask) -> int:
        """Element index of an ideal bitmask; only on ideal lattices."""
        if self._mask_index is None:
            raise ValueError("not an ideal lattice; lift first")
        try:
            return self._mask_index[mask]
        except KeyError:
            raise RuntimeError(f"mask {mask:b} is not an ideal of the base") from None

    def __eq__(self, other):
        # Structural equality; the ideal-base annotation does not participate.
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return (
            self.order == other.order
            and self.bot_idx == other.bot_idx
            and self.top_idx == other.top_idx
            and self._meet == other._meet
            and self._join == other._join
        )

    __hash__ = None

    def __repr__(self):
        if not len(self):
            return "FiniteLattice(empty)"
        return f"FiniteLattice({len(self)} elements, bot={self.bot!r}, top={self.top!r})"


def lattice_from_order(order: Poset, max_size=None) -> FiniteLattice:
    """Derive and validate the lattice structure of a poset.

    Every pair must have a unique greatest lower bound and least upper bound
    (witnessed by NotALattice otherwise), and meet must distribute over join
    (NotDistributive carries the witness triple).
    """
    bound = explicit_lattice_bound(max_size)
    n = len(order)
    if n > bound:
        raise SizeBoundExceeded(bound, f"lattice carrier has {n} elements")
    if n == 0:
        raise NotALattice("", "", "carrier (empty order has no bounds)")
    down = order.down_masks
    up = order.up_masks
    # In a lattice glb(i,j) is the unique element whose down-set equals
    # down(i) & down(j); same for lub with up-sets.
    by_down = {down[k]: k for k in range(n)}
    by_up = {up[k]: k for k in range(n)}
    meet = array("i", bytes(4 * n * n))
    join = array("i", bytes(4 * n * n))
    for i in range(n):
        for j in range(i, n):
            g = by_down.get(down[i] & down[j])
            if g is None:
                raise NotALattice(order.elements[i], order.elements[j], "greatest lower bound")
            l = by_up.get(up[i] & up[j])
            if l is None:
                raise NotALattice(order.elements[i], order.elements[j], "least upper bound")
            meet[i * n + j] = meet[j * n + i] = g
            join[i * n + j] = join[j * n + i] = l
    _check_distributive(order.elements, meet, join, n)
    # Folding the tables gives the global bounds; both exist once every pair
    # has bounds.
    bot = top = 0
    for i in range(1, n):
        bot = meet[bot * n + i]
        top = join[top * n + i]
    return FiniteLattice(order, meet, join, bot, top)


def _check_distributive(elements, meet, join, n):
    for a in range(n):
        arow = meet[a * n : a * n + n]
        for b in range(n):
            ab = arow[b]
            jrow = join[b * n : b * n + n]
            for c in range(n):
                if arow[jrow[c]] != join[ab * n + arow[c]]:
                    raise NotDistributive(elements[a], elements[b], elements[c])


def ideal_name(base: Poset, mask: int) -> str:
    return "{" + ",".join(base.ids_from(mask)) + "}"


def ideal_lattice(base: Poset, max_size=None) -> FiniteLattice:
    """Materialize the lattice of all order ideals of a poset.

    Elements are canonical set-literal names, ordered by inclusion, with
    meet/join realized as intersection/union, bottom the empty ideal and top
    the full carrier.  Raises SizeBoundExceeded when the ideal count passes
    the explicit-lattice bound: the computation should then stay on the
    poset side.
    """
    bound = explicit_lattice_bound(max_size)
    masks = list(iter_ideal_masks(base, max_count=bound))
    items = sorted((ideal_name(base, m), m) for m in masks)
    names = [nm for nm, _ in items]
    emasks = [m for _, m in items]
    k = len(items)
    up = []
    for i in range(k):
        mi = emasks[i]
        row = 0
        for j in range(k):
            if mi & ~emasks[j] == 0:
                row |= 1 << j
        up.append(row)
    order = Poset(names, up)
    index = {m: i for i, m in enumerate(emasks)}
    meet = array("i", bytes(4 * k * k))
    join = array("i", bytes(4 * k * k))
    for i in range(k):
        for j in range(i, k):
            g = index[emasks[i] & emasks[j]]
            l = index[emasks[i] | emasks[j]]
            meet[i * k + j] = meet[j * k + i] = g
            join[i * k + j] = join[j * k + i] = l
    # Intersection/union of down-closed sets is down-closed and distributes,
    # so no triple scan is needed here; lattice_from_order re-derives the
    # same structure when a full revalidation is wanted.
    return FiniteLattice(
        order,
        meet,
        join,
        index[0],
        index[(1 << len(base)) - 1],
        ideal_base=base,
        element_masks=tuple(emasks),
    )


def join_irreducibles(lat: FiniteLattice) -> Poset:
    """Sub-poset of the join-irreducible elements, order inherited.

    An element qualifies iff it has exactly one lower cover, which in a
    finite lattice is equivalent to never being a join of two strictly
    smaller elements (and excludes bottom).
    """
    order = lat.order
    keep = []
    for x in range(len(order)):
        strict_down = order.down_masks[x] ^ (1 << x)
        ncovers = 0
        for i in bits(strict_down):
            if (order.up_masks[i] ^ (1 << i)) & strict_down == 0:
                ncovers += 1
                if ncovers > 1:
                    break
        if ncovers == 1:
            keep.append(x)
    return order.restrict(keep)


def birkhoff_eta(lat: FiniteLattice) -> dict:
    """Map each lattice element to its ideal of join-irreducibles below.

    On a validated distributive lattice this is a bijection onto the ideal
    family of the irreducibles and preserves meet, join, bottom and top; a
    failure here is an internal-consistency defect and raises RuntimeError.
    """
    irr = join_irreducibles(lat)
    irr_idx = [lat.index(x) for x in irr.elements]
    out = {}
    for a_i, a in enumerate(lat.elements):
        m = 0
        for k, x_i in enumerate(irr_idx):
            if lat.order.leq_idx(x_i, a_i):
                m |= 1 << k
        out[a] = OrderIdeal(irr, m)
    if len({ideal.mask for ideal in out.values()}) != len(out):
        raise RuntimeError("irreducible-ideal map is not injective on a validated lattice")
    n_ideals = count_ideals(irr, max_count=len(out))
    if n_ideals != len(out):
        raise RuntimeError("irreducible-ideal map is not onto the ideal family")
    return out


class LatticeHom:
    """A map between lattices preserving meet, join, bottom and top.

    Build through :func:`is_homomorphism`; ``unchecked`` is the validation
    bypass for oracle harnesses that iterate deliberately non-preserving
    maps.
    """

    __slots__ = ("domain", "codomain", "image")

    def __init__(self, domain: FiniteLattice, codomain: FiniteLattice, image):
        self.domain = domain
        self.codomain = codomain
        self.image = tuple(image)

    @classmethod
    def identity(cls, lat: FiniteLattice) -> "LatticeHom":
        return cls(lat, lat, range(len(lat)))

    @classmethod
    def unchecked(cls, table, domain: FiniteLattice, codomain: FiniteLattice) -> "LatticeHom":
        return cls(domain, codomain, _total_image(table, domain.order, codomain.order))

    @property
    def table(self) -> dict:
        return {x: self.codomain.elements[self.image[i]] for i, x in enumerate(self.domain.elements)}

    def __call__(self, x):
        return self.codomain.elements[self.image[self.domain.index(x)]]

    def after(self, other: "LatticeHom") -> "LatticeHom":
        """Composition self . other (apply ``other`` first)."""
        if other.codomain != self.domain:
            raise ValueError("composition domains do not match")
        return LatticeHom(other.domain, self.codomain, (self.image[i] for i in other.image))

    def is_endo(self) -> bool:
        return self.domain == self.codomain

    def __eq__(self, other):
        if not isinstance(other, LatticeHom):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.image == other.image
        )

    __hash__ = None

    def __repr__(self):
        return f"LatticeHom({self.table!r})"


def is_homomorphism(table, domain: FiniteLattice, codomain: FiniteLattice) -> LatticeHom:
    """Validate a raw element table as a lattice homomorphism and wrap it.

    Checks bottom, top, then every element pair's meet and join in
    identifier order; NotHom carries the first broken law and its witnesses.
    """
    image = _total_image(table, domain.order, codomain.order)
    if image[domain.bot_idx] != codomain.bot_idx:
        raise NotHom("bot", domain.bot)
    if image[domain.top_idx] != codomain.top_idx:
        raise NotHom("top", domain.top)
    n = len(domain)
    for i in range(n):
        for j in range(i, n):
            if image[domain.meet_idx(i, j)] != codomain.meet_idx(image[i], image[j]):
                raise NotHom("meet", domain.elements[i], domain.elements[j])
            if image[domain.join_idx(i, j)] != codomain.join_idx(image[i], image[j]):
                raise NotHom("join", domain.elements[i], domain.elements[j])
    return LatticeHom(domain, codomain, image)

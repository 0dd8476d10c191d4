"""Explicit finite distributive lattices and their homomorphisms.

Every validated lattice is stored as its Birkhoff representation: a poset B
(the join-irreducibles, or the base of an ideal lattice) and, per element,
the bitmask of the order ideal of B it corresponds to, so meet is ``&`` and
join is ``|``.  Validation checks that representation on the order's
covers, in a few mask steps per cover with no closure and no ideal count,
instead of a pair or triple scan, and a homomorphism is accepted by
reading its dual map on the bases; the identifier-order scans that name a
witness run only once such a check has failed.  Both visit only what can
fail: a lattice is recognised by the meets of each element with the
meet-irreducibles, so the pair scan runs only on an order that is no
lattice, and over incomparable pairs; the triple scan visits only the
pairs (b, c) whose join splits a join-irreducible j ≤ a that is not
join-prime, since no other triple can fail, and keeps no meet or join
table.

Explicit lattices exist for validation and small-scale oracles; production
fix-point computation stays on the poset side, so the element count is
capped (BIRKHOFF_MAX_LATTICE overrides the default of 4096).
"""

from __future__ import annotations

import os
from functools import cache, reduce
from itertools import compress
from operator import and_, invert, or_

from .bitgraph import bits, select, transpose_masks
from .errors import NotALattice, NotDistributive, NotHom, SizeBoundExceeded
from .poset import MonotoneMap, OrderIdeal, Poset, _TableMap, _cover_masks, _generated_poset, _ideal_walk, _total_image

DEFAULT_MAX_LATTICE = 4096
MAX_LATTICE_ENV = "BIRKHOFF_MAX_LATTICE"


def explicit_lattice_bound(override=None) -> int:
    """Element cap for materialized lattices."""
    if override is not None:
        return override
    raw = os.environ.get(MAX_LATTICE_ENV)
    if raw:
        try:
            bound = int(raw)
        except ValueError:
            raise ValueError(f"{MAX_LATTICE_ENV} must be a positive integer, got {raw!r}") from None
        if bound <= 0:
            raise ValueError(f"{MAX_LATTICE_ENV} must be positive, got {raw!r}")
        return bound
    return DEFAULT_MAX_LATTICE


class FiniteLattice:
    """A finite distributive lattice as its Birkhoff representation.

    ``order`` is the carrier poset.  ``ideal_base`` is a poset B and
    ``element_masks[i]`` the bitmask over B of the order ideal that element
    i corresponds to; the map is an order-isomorphism onto all ideals of B,
    so meet and join are intersection and union of masks.  For ideal
    lattices B is the poset the elements are ideals of; for lattices built
    from an order it is J, the sub-poset of join-irreducible elements,
    generated by sparse edges found while validating, like every poset.
    ``principal[x]`` is the index of the element whose ideal is the
    down-set of base point x; B is J exactly when each x bears that
    element's name (:func:`_irreducibles`).  ``first_lower[i]`` and
    ``second_lower[i]`` are the indices of the two lowest-index lower
    covers of element i, -1 where it has fewer; two distinct lower covers
    join to their element.
    The mask-to-element dict behind the lookups is built on first use.
    Instances come from the validating constructors below and are immutable.
    """

    __slots__ = (
        "order", "bot_idx", "top_idx", "ideal_base", "element_masks",
        "principal", "first_lower", "second_lower", "_by_mask",
    )

    def __init__(self, order, ideal_base, element_masks, principal, first_lower, second_lower):
        self.order = order
        self.ideal_base = ideal_base
        self.element_masks = tuple(element_masks)
        self.principal = tuple(principal)
        self.first_lower = tuple(first_lower)
        self.second_lower = tuple(second_lower)
        self._by_mask = None
        self.bot_idx = self.element_masks.index(0)
        self.top_idx = self.element_masks.index((1 << len(ideal_base)) - 1)

    @property
    def _mask_index(self):
        if self._by_mask is None:
            self._by_mask = {m: i for i, m in enumerate(self.element_masks)}
        return self._by_mask

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

    def __contains__(self, x):
        return x in self.order

    def index(self, x):
        return self.order.index(x)

    def leq(self, x, y):
        return self.order.leq(x, y)

    def meet_idx(self, i, j):
        return self._mask_index[self.element_masks[i] & self.element_masks[j]]

    def join_idx(self, i, j):
        return self._mask_index[self.element_masks[i] | self.element_masks[j]]

    def meet(self, x, y):
        return self.elements[self.meet_idx(self.index(x), self.index(y))]

    def join(self, x, y):
        return self.elements[self.join_idx(self.index(x), self.index(y))]

    def ideal_index(self, mask) -> int:
        """Element index of an ideal bitmask over ``ideal_base``."""
        try:
            return self._mask_index[mask]
        except KeyError:
            raise RuntimeError(f"mask {mask:b} is not an ideal of the base") from None

    def __eq__(self, other):
        # The order determines meet, join and the bounds; the representation
        # does not participate.
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.order == other.order

    __hash__ = None

    def __repr__(self):
        return f"FiniteLattice({len(self)} elements, bot={self.bot!r}, top={self.top!r})"


def lattice_from_order(order: Poset, max_size=None) -> FiniteLattice:
    """Derive and validate the lattice structure of a poset.

    Accepts through Birkhoff's theorem (see :func:`_birkhoff`).  On
    rejection, every pair must have a unique greatest lower bound and least
    upper bound (witnessed by NotALattice otherwise), and meet must
    distribute over join (NotDistributive carries the witness triple), both
    checked in identifier order.  Both scans skip what cannot fail (see
    :func:`_raise_lattice_witness`), so the witness is the first failure
    of the full scans, found without running them.
    """
    bound = explicit_lattice_bound(max_size)
    n = len(order)
    if n > bound:
        raise SizeBoundExceeded(bound, f"lattice carrier has {n} elements")
    if n == 0:
        raise NotALattice("", "", "carrier (empty order has no bounds)")
    rep = _birkhoff(order)
    if rep is None:
        _raise_lattice_witness(order)
        raise RuntimeError("Birkhoff check rejected an order that the witness scans accept")
    return FiniteLattice(order, *rep)


def _birkhoff(order: Poset):
    """(J, masks, principal, first_lower, second_lower) when the order is a
    distributive lattice, else None.

    J is the sub-poset of the elements with exactly one lower cover, in
    ascending index in the order, and ``principal`` lists them.  masks[a]
    is the set of those at or below a, built over a linear extension (the
    reverse of ``order.order``): a join-irreducible j takes its one lower
    cover's mask plus j; any other a takes m, the union of the masks of
    its two lowest-index lower covers, ``first_lower[a]`` and
    ``second_lower[a]``.  Alongside, gens[a] is the set of maximal points
    of masks[a]: j itself for j in J, else the points x_c below.  Each j
    in J is generated from gens of its one lower cover, whose down-closure
    is everything in J strictly below j; those are j's lower covers in J,
    so J's generating edges are its cover relation.  The covers come from
    :func:`_cover_masks`, so an order given by its covers is never closed.
    The order is accepted when

    (i) for every a with two or more lower covers, each lower cover c has
        masks[c] = m less one point x_c of m, the x_c are distinct, and no
        point is in gens[c] for every c; then masks[a] = m, which is the
        union over all lower covers, and gens[a] = {x_c};
    (ii) the masks are pairwise distinct, tested on gens, since an ideal is
         the down-closure of its maximal points (narrower keys than the
         masks when names run against the order);
    (iii) some mask is all of J.

    Every mask is an ideal of J, and the map a -> masks[a] is monotone
    along covers.  In (i) each x_c is maximal in m, since m less x_c is an
    ideal.  A maximal point y of m that is no x_c lies in every masks[c]
    and is maximal there, so it would be in gens[c] for every c; as no
    such point exists, the x_c are all the maximal points of m, and gens[a]
    is the set of them.  The lower covers of an ideal in the ideal lattice
    O(J) are the ideal less one of its maximal points.  For a in J that is
    masks[a] less a, the mask of its one lower cover; for other a, by (i)
    each is the mask of a lower cover of a.  So every lower cover in O(J)
    of an image is the image of a lower cover in P.  With (iii) the image
    set is then closed downward from the full ideal, so it is all of O(J),
    and by (ii) the map is a bijection.  Inclusion in O(J) is the closure
    of its covers, each of which comes from a cover of P, so the map
    reflects the order too: it is an order isomorphism onto O(J), and the
    order is a distributive lattice.  Conversely, in a finite distributive
    lattice J is the set of join-irreducibles and the map is Birkhoff's
    isomorphism.  The lower covers of a are a's ideal less each of its
    maximal points x_c, and a point in gens[c] for every c would have
    nothing above it in a's ideal but x_c, for two distinct x_c, so it
    would be maximal there: some x_c, which masks[c] leaves out.  So all
    three checks pass.

    A refused order keeps the up-sets the cover pass closed for its mixed
    rows, if any, as its cached closure: the witness scans read them next.
    An accepted one keeps none.
    """
    n = len(order)
    lower = [0] * n
    closed = []
    _cover_masks(order, lower, closed)
    irr = [a for a in range(n) if lower[a].bit_count() == 1]
    rank = {j: k for k, j in enumerate(irr)}
    masks = [0] * n
    gens = [0] * n
    first = [-1] * n
    second = [-1] * n
    below = [0] * len(irr)
    for a in reversed(order.order):
        covers = lower[a]
        if not covers:
            continue  # a minimal element keeps the empty mask
        low = covers & -covers
        c = first[a] = low.bit_length() - 1
        k = rank.get(a)
        if k is not None:
            below[k] = gens[c]
            masks[a] = masks[c] | 1 << k
            gens[a] = 1 << k
            continue
        rest = covers ^ low
        d = second[a] = (rest & -rest).bit_length() - 1
        m = masks[c] | masks[d]
        gen = 0
        common = -1
        rest = covers
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            x = m ^ masks[c]
            if x & (x - 1) or not x & m or x & gen:
                common = -1  # refused, by the test below
                break
            gen |= x
            common &= gens[c]
            rest ^= low
        if common:
            break
        masks[a] = m
        gens[a] = gen
    else:
        if len(set(gens)) == n and (1 << len(irr)) - 1 in masks:
            base = _generated_poset(
                [order.elements[j] for j in irr],
                transpose_masks(below),
                [rank[a] for a in order.order if a in rank],
            )
            return base, masks, irr, first, second
    if closed and order._up_masks is None:
        order._up_masks = tuple(closed)
    return None


def _raise_lattice_witness(order: Poset):
    """The canonical scans: raise the first pair without a bound, else the
    first triple (a, b, c) where a ∧ (b ∨ c) differs from (a ∧ b) ∨ (a ∧ c),
    both in identifier order.

    Both scans visit only what can fail, in the same order, so the witness
    is the first failure of the full scans.  Two comparable elements always
    have both bounds, the lesser and the greater, so the pair scan visits
    incomparable pairs only, and runs only when :func:`_is_lattice` finds
    the order is no lattice.  The triple scan raises the first triple
    that :func:`_failing_triples` yields.
    """
    n = len(order)
    elements = order.elements
    up, down = order.up_masks, order.down_masks
    full = (1 << n) - 1
    # In a lattice glb(i,j) is the unique element whose down-set equals
    # down(i) & down(j); same for lub with up-sets.
    by_down = {m: k for k, m in enumerate(down)}
    by_up = {m: k for k, m in enumerate(up)}
    if not _is_lattice(order, by_down, by_up):
        for i, (di, ui) in enumerate(zip(down, up)):
            for j in bits((full ^ (di | ui)) >> i << i):
                if di & down[j] not in by_down:
                    raise NotALattice(elements[i], elements[j], "greatest lower bound")
                if ui & up[j] not in by_up:
                    raise NotALattice(elements[i], elements[j], "least upper bound")
    for a, b, cs in _failing_triples(order, by_down, by_up):
        for c in cs:
            raise NotDistributive(elements[a], elements[b], elements[c])


def _is_lattice(order: Poset, by_down, by_up) -> bool:
    """Whether the order is a lattice: whether some element is above all,
    and every element x has a greatest lower bound with every
    meet-irreducible m (one with one upper cover) it is not comparable to;
    ``by_down`` and ``by_up`` hold every element's down-set and up-set.

    A lattice passes.  Conversely, call y good when it has a meet with
    every x, and go down from the top, which is good.  Every other y has
    an upper cover.  With one, y is meet-irreducible, so good.  With more,
    two of them, y1 and y2, lie above y, so they are good and y1 ∧ y2
    exists.  It lies between y and y1 and is not y1, or else y < y1 ≤ y2
    and y2 would not cover y; so it is y.  Then down(x) & down(y) is
    down(x ∧ y1) & down(y2), the down-set of (x ∧ y1) ∧ y2, and y is good.  So all meets exist, and the meet of the
    common upper bounds of two elements, the top among them, is their
    least upper bound.  m is meet-irreducible when its strict up-set is
    some element's up-set.  Each row runs in C.
    """
    n = len(order)
    up, down = order.up_masks, order.down_masks
    if (1 << n) - 1 not in by_down:
        return False
    irr = 0
    for m in range(n):
        if up[m] ^ 1 << m in by_up:
            irr |= 1 << m
    has = by_down.__contains__
    return all(all(map(has, map(d.__and__, select(down, irr & ~(d | u))))) for d, u in zip(down, up))


def _failing_triples(order: Poset, by_down, by_up):
    """Yield (a, b, cs) with a, then b, ascending, and cs an iterator of
    the c, ascending, with a ∧ (b ∨ c) ≠ (a ∧ b) ∨ (a ∧ c) in a lattice;
    every such triple comes up.  ``by_down`` and ``by_up`` hold every
    element's down-set and up-set.

    The left side is above the right, and every element is the join of
    the join-irreducibles below it.  So the triple fails exactly when some
    join-irreducible j ≤ a with j ≤ b ∨ c is not below the right side;
    then j ≰ b and j ≰ c, or else j ≤ a ∧ b or a ∧ c, so j is not
    join-prime, and b and c split j.  That relation is symmetric, and it
    stays true as c grows outside up(j), so b splits j with some c exactly
    when it does with some maximal m outside up(j).  Now j ≤ b ∨ m exactly
    when every common upper bound of b and m is above j, that is when b
    is below none of up(m) ∖ up(j).  So the splitters of j, the b that
    split j with some c, are the elements outside up(j) and outside the
    down-closure of up(m) ∖ up(j) for some such m.  Row a takes b and c
    from the splitters of its j, and tests each c by four lookups, in C.
    When b and c are both below a, both sides are b ∨ c: so c is not below
    a when b is, and a row yields nothing when every element outside up(j)
    for some such j is below a.
    """
    n = len(order)
    up, down = order.up_masks, order.down_masks
    full = (1 << n) - 1
    elements = range(n)
    nonprime = _nonprime_irreducibles(order, by_down)

    @cache
    def splitters(j):
        # m is maximal outside up(j) when its up-set meets that set in m alone
        out = full & ~up[j]
        tops = compress(select(elements, out), map((1).__eq__, map(int.bit_count, map(out.__and__, select(up, out)))))
        return out & ~reduce(and_, [reduce(or_, select(down, up[m] & out)) for m in tops], full)

    for a, da in enumerate(down):
        js = da & nonprime
        if js and full & ~(reduce(and_, select(up, js)) | da):
            pool = reduce(or_, map(splitters, bits(js)))
            # per element, its j and the j not below it; per c in the pool,
            # and in the pool but not below a: c and the up-set of a ∧ c
            below, beside = list(map(js.__and__, down)), list(map(js.__and__, map(invert, down)))
            rows = []
            for m in (pool, pool & ~da):
                meets = list(map(up.__getitem__, map(by_down.__getitem__, map(da.__and__, select(down, m)))))
                rows.append((list(select(elements, m)), list(select(up, m)), meets))
            for b in bits(pool):
                cs, ups, meets = rows[da >> b & 1]
                ub, uab = up[b], up[by_down[da & down[b]]]
                # a j below b ∨ c and not below (a ∧ b) ∨ (a ∧ c)
                left = map(below.__getitem__, map(by_up.__getitem__, map(ub.__and__, ups)))
                right = map(beside.__getitem__, map(by_up.__getitem__, map(uab.__and__, meets)))
                yield a, b, compress(cs, map(and_, left, right))


def _nonprime_irreducibles(order: Poset, by_down) -> int:
    """Mask of the join-irreducibles of a lattice that are not join-prime;
    ``by_down`` holds every element's down-set.

    An element j is join-irreducible when its strict down-set is some
    element's down-set (that of its one lower cover), and join-prime when
    the elements not above j are, since a down-set of a lattice is closed
    under joins exactly when it is principal.  Each test is one lookup.
    """
    up, down = order.up_masks, order.down_masks
    full = (1 << len(order)) - 1
    out = 0
    for j in range(len(order)):
        if down[j] ^ 1 << j in by_down and full & ~up[j] not in by_down:
            out |= 1 << j
    return out


def ideal_lattice(base: Poset, max_size=None) -> FiniteLattice:
    """Materialize the lattice of all order ideals of a poset.

    Elements are canonical set-literal names, ordered by inclusion, with
    meet/join realized as intersection/union, bottom the empty ideal and top
    the full carrier.  Raises SizeBoundExceeded when the ideal count passes
    the explicit-lattice bound: the computation should then stay on the
    poset side.
    """
    bound = explicit_lattice_bound(max_size)
    walk = list(_ideal_walk(base, max_count=bound))
    items = sorted((OrderIdeal(base, m).name, m) for m, _, _ in walk)
    names = [nm for nm, _ in items]
    emasks = [m for _, m in items]
    index = {m: i for i, m in enumerate(emasks)}
    # An ideal is covered by itself plus one minimal point of its complement,
    # which the walk lists; inclusion is the closure of those covers, and
    # each cover met also updates the two lowest-index lower covers of the
    # larger ideal.  The walk comes in ascending size, so its reverse lists
    # every ideal after all ideals above it, and the first ideal in it that
    # holds x is the down-set of x.
    n = len(emasks)
    covers = [0] * n
    first, second = [-1] * n, [-1] * n
    principal = [0] * len(base)
    seen = 0
    for m, mins, _ in walk:
        i = index[m]
        new = m & ~seen
        if new:
            principal[new.bit_length() - 1] = i
            seen |= m
        row = 0
        for x in bits(mins):
            t = index[m | 1 << x]
            row |= 1 << t
            lo = first[t]
            if lo < 0 or i < lo:
                first[t], second[t] = i, lo
            elif second[t] < 0 or i < second[t]:
                second[t] = i
        covers[i] = row
    order = _generated_poset(names, covers, [index[m] for m, _, _ in reversed(walk)])
    # The ideals of a poset, ordered by inclusion, are its Birkhoff
    # representation by definition: nothing is left to validate.
    return FiniteLattice(order, base, emasks, principal, first, second)


def join_irreducibles(lat: FiniteLattice) -> Poset:
    """Sub-poset of the join-irreducible elements, order inherited.

    These are the elements whose ideal over the base is principal, one per
    base point; for ideal lattices, the base with each x renamed to the name
    of its down-set.
    """
    return _irreducibles(lat)[0]


def _irreducibles(lat: FiniteLattice):
    """join_irreducibles(lat), and per base point x the index in it of the
    element whose ideal is the down-set of x: the base's generators,
    relabelled by that index.

    The lattice keeps those elements as ``principal``, so no down-set is
    closed.  Of the lattices the constructors build, the base is J itself,
    and the relabelling the identity, exactly when each base point x bears
    the name of ``principal[x]``: a lattice read from an order has J as its
    base, under its own names, in ascending index, as :func:`_birkhoff`
    lists them.  An ideal lattice never passes the test, as the name of
    the down-set of x holds the name of x between braces, so it is longer."""
    base = lat.ideal_base
    if base.elements == tuple(map(lat.elements.__getitem__, lat.principal)):
        return base, range(len(base))
    elems = sorted(lat.principal)
    rank = {e: k for k, e in enumerate(elems)}
    pos = [rank[e] for e in lat.principal]
    gen = [0] * len(pos)
    for x, succ in enumerate(base.gen_masks):
        for y in bits(succ):
            gen[pos[x]] |= 1 << pos[y]
    irr = _generated_poset([lat.elements[e] for e in elems], gen, [pos[x] for x in base.order])
    return irr, pos


class LatticeHom(_TableMap):
    """A map between lattices preserving meet, join, bottom and top.

    Build through :func:`is_homomorphism`, which stores the dual map it
    reads off on the way as ``dual``, a MonotoneMap between the ideal
    bases; ``identity`` and ``after`` carry theirs by functoriality.
    Lattices are unhashable, and so are their homomorphisms.
    """

    __slots__ = ("dual",)

    def __init__(self, domain, codomain, image, dual):
        super().__init__(domain, codomain, image)
        self.dual = dual

    __hash__ = None

    @classmethod
    def identity(cls, lat):
        return cls(lat, lat, range(len(lat)), MonotoneMap.identity(lat.ideal_base))

    def after(self, other):
        """Composition self . other, whose dual is other.dual . self.dual.
        Middle lattices equal as orders but built on different bases raise
        ValueError, as mismatched ones do."""
        if other.codomain != self.domain:
            raise ValueError("composition domains do not match")
        dual = other.dual.after(self.dual)
        return LatticeHom(other.domain, self.codomain, (self.image[i] for i in other.image), dual)


def is_homomorphism(table, domain: FiniteLattice, codomain: FiniteLattice) -> LatticeHom:
    """Validate a raw element table as a lattice homomorphism and wrap it.

    Checks bottom, then top, then accepts through :func:`_preserves_laws`,
    which reads the table's dual map; the hom keeps it as ``dual``.  Only a
    table that fails it is scanned pair by pair in identifier order, so
    NotHom carries the first broken law and its witnesses.
    """
    image = _total_image(table, domain.order, codomain.order)
    if image[domain.bot_idx] != codomain.bot_idx:
        raise NotHom("bot", domain.bot)
    if image[domain.top_idx] != codomain.top_idx:
        raise NotHom("top", domain.top)
    least = _preserves_laws(image, domain, codomain)
    if least is None:
        _raise_hom_witness(image, domain, codomain)
        raise RuntimeError("homomorphism check rejected a table that the pair scan accepts")
    return LatticeHom(domain, codomain, image, MonotoneMap(codomain.ideal_base, domain.ideal_base, least))


def _preserves_laws(image, domain, codomain):
    """The dual map phi of an image that keeps bottom and top, as image
    indices from the codomain base into the domain base, when the image
    preserves meet and join; else None.

    With f(a) the image's mask over the codomain base, it accepts when
    f(a) = f(c1) | f(c2) for the two lowest-index lower covers c1, c2 of
    every element a that has two, and :func:`_least_by_differences`
    reads a map phi off f at each principal element, the down-set of a
    base point x, with f of its one lower cover, the down-set of x less
    x, as the strict image; so that f(down-set of x) = phi^-1(down-set of
    x).  Two distinct lower covers join to their element, as c1 < c1 v c2
    <= a and c1 is covered by a.  So by induction on rank every element
    other than bottom is principal or has f(a) = phi^-1(c1) |
    phi^-1(c2) = phi^-1(a): f = phi^-1, which preserves meet, join,
    bottom and top; and y is in f(down-set of x) exactly when phi(y) <= x,
    so phi(y) is the least such x: phi is the dual map.  A homomorphism
    passes: it keeps c1 v c2 = a, and f is the preimage map of its dual.
    No mask is looked up.
    """
    f = list(map(codomain.element_masks.__getitem__, image))
    for fa, c, d in zip(f, domain.first_lower, domain.second_lower):
        if d >= 0 and fa != f[c] | f[d]:
            return None
    first = domain.first_lower
    principal = domain.principal
    return _least_by_differences(
        [f[a] for a in principal], [f[first[a]] for a in principal], domain.ideal_base, codomain.ideal_base
    )


def _least_by_differences(images, strict_images, p, q):
    """Per y of Q the x of P it is new at, or None unless every y is new at
    exactly one x and the images are generated from what is new.

    y is new at x when it is in ``images[x]`` but not in
    ``strict_images[x]``.  The images are generated from what is new when
    each is what is new at x plus the images of the generating
    predecessors of x; then, by induction over the order, y is in
    ``images[x]`` exactly when the x it is new at is at or below x, whatever
    the strict images hold.
    """
    least = [None] * len(q)
    below = [0] * len(p)
    seen = 0
    for x, (img, strict, succ) in enumerate(zip(images, strict_images, p.gen_masks)):
        new = img & ~strict
        if new & seen:
            return None
        seen |= new
        while new:
            low = new & -new
            least[low.bit_length() - 1] = x
            new ^= low
        while succ:
            low = succ & -succ
            below[low.bit_length() - 1] |= img
            succ ^= low
    if None in least or any(img != img & ~strict | low for img, strict, low in zip(images, strict_images, below)):
        return None
    return least


def _raise_hom_witness(image, domain, codomain):
    """The canonical pair scan: raise the first broken meet or join law."""
    n = len(domain)
    for i in range(n):
        for j in range(i, n):
            if image[domain.meet_idx(i, j)] != codomain.meet_idx(image[i], image[j]):
                raise NotHom("meet", domain.elements[i], domain.elements[j])
            if image[domain.join_idx(i, j)] != codomain.join_idx(image[i], image[j]):
                raise NotHom("join", domain.elements[i], domain.elements[j])

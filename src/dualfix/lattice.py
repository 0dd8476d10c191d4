"""Explicit finite distributive lattices and their homomorphisms.

Every validated lattice is stored as its Birkhoff representation: a poset B
(the join-irreducibles, or the base of an ideal lattice) and, per element,
the bitmask of the order ideal of B it corresponds to, so meet is ``&`` and
join is ``|``.  Validation checks that representation directly, in at most
O(n·|B|) mask steps instead of a pair or triple scan; the identifier-order
scans that name a witness run only once that check has failed.  The pair
scan is quadratic; the triple scan visits only the rows a at or above a
join-irreducible that is not join-prime, since no other row can hold a
failing triple, and keeps no meet or join table.

Explicit lattices exist for validation and small-scale oracles; production
fix-point computation stays on the poset side, so the element count is
capped (BIRKHOFF_MAX_LATTICE overrides the default of 4096).
"""

from __future__ import annotations

import os

from .bitgraph import bits, transpose_masks
from .errors import NotALattice, NotDistributive, NotHom, SizeBoundExceeded
from .poset import OrderIdeal, Poset, _TableMap, _cover_masks, _generated_poset, _total_image, count_ideals, iter_ideal_masks

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
    """A finite distributive lattice as its Birkhoff representation.

    ``order`` is the carrier poset.  ``ideal_base`` is a poset B and
    ``element_masks[i]`` the bitmask over B of the order ideal that element
    i corresponds to; the map is an order-isomorphism onto all ideals of B,
    so meet and join are intersection and union of masks.  For ideal
    lattices B is the poset the elements are ideals of; for lattices built
    from an order it is the sub-poset of join-irreducible elements, closed
    from sparse generators found while validating, like every poset.
    Instances come from the validating constructors below and are immutable.
    """

    __slots__ = ("order", "bot_idx", "top_idx", "ideal_base", "element_masks", "_mask_index")

    def __init__(self, order, ideal_base, element_masks):
        self.order = order
        self.ideal_base = ideal_base
        self.element_masks = tuple(element_masks)
        self._mask_index = {m: i for i, m in enumerate(self.element_masks)}
        self.bot_idx = self._mask_index[0]
        self.top_idx = self._mask_index[(1 << len(ideal_base)) - 1]

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
    checked in identifier order.  The triple scan skips rows that cannot
    fail (see :func:`_raise_lattice_witness`), so the witness is the first
    failing triple of the full scan, found without running it.
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
    """(J, masks) when the order is a distributive lattice, else None.

    J is the sub-poset of the elements with exactly one lower cover, and
    masks[a] the set of those below a, built up over a linear extension as
    the union of the lower covers' masks.  The order is accepted when every
    minimal element is the least element, every element with two or more
    lower covers is their least upper bound, and J has exactly n ideals.
    By induction over the extension, the first two make every a the least
    upper bound of masks[a], so a -> masks[a] reflects the order and is
    injective; the count makes it onto the ideals of J, so the order is
    isomorphic to the ideal lattice of J.  Conversely, in a finite
    distributive lattice J is the set of join-irreducibles and the map is
    Birkhoff's isomorphism, so all three checks pass.

    Alongside, gens[a] is a set of irreducibles whose down-closure in J is
    masks[a]: a itself for a in J, else the union over the lower covers.
    Each j in J is generated from the maximal members of gens of its one
    lower cover, whose down-closure is everything in J strictly below j;
    those are j's lower covers in J, so J's generating edges are its cover
    relation.
    """
    n = len(order)
    up, down = order.up_masks, order.down_masks
    lower, _ = _cover_masks(order)
    irr = [a for a in range(n) if lower[a].bit_count() == 1]
    rank = {j: k for k, j in enumerate(irr)}
    extension = sorted(range(n), key=lambda a: down[a].bit_count())
    full = (1 << n) - 1
    masks = [0] * n
    gens = [0] * n
    below = [0] * len(irr)
    strictly_below = [0] * len(irr)
    for a in extension:
        mask = gen = 0
        bounds = full
        for c in bits(lower[a]):
            mask |= masks[c]
            gen |= gens[c]
            bounds &= up[c]
        if a in rank:
            k = rank[a]
            for i in bits(gen):
                gen &= ~strictly_below[i]
            below[k] = gen
            strictly_below[k] = mask
            mask |= 1 << k
            gen = 1 << k
        elif bounds != up[a]:
            return None
        masks[a] = mask
        gens[a] = gen
    base = _generated_poset(
        [order.elements[j] for j in irr],
        transpose_masks(below),
        [rank[a] for a in reversed(extension) if a in rank],
    )
    try:
        if count_ideals(base, max_count=n) != n:
            return None
    except SizeBoundExceeded:
        return None
    return base, masks


def _raise_lattice_witness(order: Poset):
    """The canonical scans: raise the first pair without a bound, else the
    first triple (a, b, c) where a ∧ (b ∨ c) differs from (a ∧ b) ∨ (a ∧ c),
    both in identifier order.

    The triple scan skips, without changing its witness, every row a that
    provably holds no failing triple.  In a finite lattice a ∧ (b ∨ c) is
    the join of the join-irreducibles j ≤ a with j ≤ b ∨ c.  When such a j
    is join-prime, j ≤ b or j ≤ c, so j ≤ (a ∧ b) ∨ (a ∧ c); so a row can
    fail only if some join-irreducible at or below a is not join-prime.  An
    element j is join-irreducible when its strict down-set is some element's
    down-set (that of its one lower cover), and join-prime when the
    elements not above j are, since a down-set of a lattice is closed under
    joins exactly when it is principal.  Each test is one lookup.
    """
    n = len(order)
    elements = order.elements
    up, down = order.up_masks, order.down_masks
    # In a lattice glb(i,j) is the unique element whose down-set equals
    # down(i) & down(j); same for lub with up-sets.
    by_down = {m: k for k, m in enumerate(down)}
    by_up = {m: k for k, m in enumerate(up)}
    for i in range(n):
        di, ui = down[i], up[i]
        for j in range(i, n):
            if di & down[j] not in by_down:
                raise NotALattice(elements[i], elements[j], "greatest lower bound")
            if ui & up[j] not in by_up:
                raise NotALattice(elements[i], elements[j], "least upper bound")
    nonprime = _nonprime_irreducibles(order, by_down)
    for a in range(n):
        if not down[a] & nonprime:
            continue
        # meet_up[x] is the up-set of a ∧ x, and meet_up_of maps the up-set
        # of x to it.  The up-set of a join is the intersection of the
        # up-sets, which gives both sides as up-sets without a table.
        meet_up = [up[by_down[down[a] & d]] for d in down]
        meet_up_of = dict(zip(up, meet_up))
        for b in range(n):
            ub, ab = up[b], meet_up[b]
            for c, (uc, ac) in enumerate(zip(up, meet_up)):
                if meet_up_of[ub & uc] != ab & ac:
                    raise NotDistributive(elements[a], elements[b], elements[c])


def _nonprime_irreducibles(order: Poset, by_down) -> int:
    """Mask of the join-irreducibles of a lattice that are not join-prime;
    ``by_down`` holds every element's down-set."""
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
    masks = list(iter_ideal_masks(base, max_count=bound))
    items = sorted((OrderIdeal(base, m).name, m) for m in masks)
    names = [nm for nm, _ in items]
    emasks = [m for _, m in items]
    index = {m: i for i, m in enumerate(emasks)}
    # An ideal is covered by itself plus one minimal point of its complement;
    # inclusion is the closure of those covers.  The masks come in ascending
    # size, so their reverse lists every ideal after all ideals above it.
    down = base.down_masks
    full = (1 << len(base)) - 1
    covers = [0] * len(emasks)
    for i, m in enumerate(emasks):
        comp = full & ~m
        row = 0
        for x in bits(comp):
            if down[x] & comp == 1 << x:
                row |= 1 << index[m | 1 << x]
        covers[i] = row
    order = _generated_poset(names, covers, [index[m] for m in reversed(masks)])
    # The ideals of a poset, ordered by inclusion, are its Birkhoff
    # representation by definition: nothing is left to validate.
    return FiniteLattice(order, base, emasks)


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
    relabelled by that index and closed."""
    base = lat.ideal_base
    elems = [lat.ideal_index(down) for down in base.down_masks]
    rank = {e: k for k, e in enumerate(sorted(elems))}
    pos = [rank[e] for e in elems]
    gen = [0] * len(pos)
    for x, succ in enumerate(base.gen_masks):
        for y in bits(succ):
            gen[pos[x]] |= 1 << pos[y]
    extension = sorted(range(len(pos)), key=lambda x: base.up_masks[x].bit_count())
    irr = _generated_poset([lat.elements[e] for e in sorted(elems)], gen, [pos[x] for x in extension])
    return irr, pos


def birkhoff_eta(lat: FiniteLattice) -> dict:
    """Map each lattice element to its ideal of join-irreducibles below.

    This renames the stored masks onto :func:`join_irreducibles`.  On a
    validated distributive lattice it is a bijection onto the ideal family
    of the irreducibles and preserves meet, join, bottom and top; a failure
    here is an internal-consistency defect and raises RuntimeError.
    """
    irr, pos = _irreducibles(lat)
    out = {}
    for a, mask in zip(lat.elements, lat.element_masks):
        m = 0
        for x in bits(mask):
            m |= 1 << pos[x]
        out[a] = OrderIdeal(irr, m)
    if len({ideal.mask for ideal in out.values()}) != len(out):
        raise RuntimeError("irreducible-ideal map is not injective on a validated lattice")
    n_ideals = count_ideals(irr, max_count=len(out))
    if n_ideals != len(out):
        raise RuntimeError("irreducible-ideal map is not onto the ideal family")
    return out


class LatticeHom(_TableMap):
    """A map between lattices preserving meet, join, bottom and top.

    Build through :func:`is_homomorphism`; ``unchecked`` is the validation
    bypass for oracle harnesses that iterate deliberately non-preserving
    maps.  Lattices are unhashable, and so are their homomorphisms.
    """

    __slots__ = ()

    __hash__ = None


def is_homomorphism(table, domain: FiniteLattice, codomain: FiniteLattice) -> LatticeHom:
    """Validate a raw element table as a lattice homomorphism and wrap it.

    Checks bottom, then top, then accepts through :func:`_preserves_laws`.
    Only a table that fails it is scanned pair by pair in identifier order,
    so NotHom carries the first broken law and its witnesses.
    """
    image = _total_image(table, domain.order, codomain.order)
    if image[domain.bot_idx] != codomain.bot_idx:
        raise NotHom("bot", domain.bot)
    if image[domain.top_idx] != codomain.top_idx:
        raise NotHom("top", domain.top)
    if not _preserves_laws(image, domain, codomain):
        _raise_hom_witness(image, domain, codomain)
        raise RuntimeError("homomorphism check rejected a table that the pair scan accepts")
    return LatticeHom(domain, codomain, image)


def _preserves_laws(image, domain, codomain) -> bool:
    """Whether an image that keeps bottom and top preserves meet and join.

    With F(a) the image's mask over the codomain base, it checks for every
    a above bottom and one maximal base point x in a that
    F(a) = F(a - x) | F(down-set of x), and for every a below top and one
    minimal point x outside a that F(a) = F(a + x) & F(B - up-set of x).
    Both hold for a homomorphism.  Conversely, by induction on |a| from
    F(bottom) = 0, the first makes F(a) the union of F(down-set of x) over
    x in a, which is additive in a, so F preserves joins; dually, from
    F(top) = all, the second makes F preserve meets.  Finding x walks the
    base order, so the cost is at most O(n·height(B)) mask steps.
    """
    base = domain.ideal_base
    full = (1 << len(base)) - 1
    index = domain.ideal_index
    f = [codomain.element_masks[i] for i in image]
    for a, mask in enumerate(domain.element_masks):
        if mask:
            x = _maximal(mask, base.up_masks)
            if f[a] != f[index(mask ^ 1 << x)] | f[index(base.down_masks[x])]:
                return False
        if mask != full:
            x = _minimal(full & ~mask, base.down_masks)
            if f[a] != f[index(mask | 1 << x)] & f[index(full & ~base.up_masks[x])]:
                return False
    return True


def _maximal(mask, up):
    """A maximal element of a nonempty mask, climbing from its highest bit."""
    j = mask.bit_length() - 1
    while above := (up[j] & mask) ^ (1 << j):
        j = above.bit_length() - 1
    return j


def _minimal(mask, down):
    """A minimal element of a nonempty mask, descending from its lowest bit."""
    j = (mask & -mask).bit_length() - 1
    while below := (down[j] & mask) ^ (1 << j):
        j = (below & -below).bit_length() - 1
    return j


def _raise_hom_witness(image, domain, codomain):
    """The canonical pair scan: raise the first broken meet or join law."""
    n = len(domain)
    for i in range(n):
        for j in range(i, n):
            if image[domain.meet_idx(i, j)] != codomain.meet_idx(image[i], image[j]):
                raise NotHom("meet", domain.elements[i], domain.elements[j])
            if image[domain.join_idx(i, j)] != codomain.join_idx(image[i], image[j]):
                raise NotHom("join", domain.elements[i], domain.elements[j])

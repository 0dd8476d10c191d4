"""Finite partial orders, order ideals, and monotone maps.

Element identifiers are opaque strings at the API edge.  Internally every
structure works on dense indices into the identifier list (kept sorted so
index order equals identifier order), and subsets are int bitmasks.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import or_

from .bitgraph import bits, dag_reach, mask_of, select, tarjan_scc, topo_order, transpose_masks
from .errors import (
    AntisymmetryViolation,
    DuplicateElement,
    NotMonotone,
    SizeBoundExceeded,
    UnknownElement,
)


class Poset:
    """Immutable finite partial order.

    ``gen_masks[i]`` holds the successors of i along strict generating
    edges whose reflexive-transitive closure is the order, and ``order``
    lists every element after all elements it reaches along them.  Layers
    that only walk the order (the monotone check, the quotient, covers,
    ideal streaming) run on the generators in O(n + generating edges)
    steps.  The generating predecessors ``pred_masks`` and the closed rows
    ``up_masks[i]`` = {j | i <= j} and ``down_masks[i]`` = {j | j <= i} are
    computed on first read and cached; equality and hashing compare the
    closed up-sets, not the generators.
    Every instance in the package comes from :func:`_generated_poset`; use
    :func:`build_poset` to construct one from pairs.
    """

    __slots__ = ("elements", "gen_masks", "order", "_pred_masks", "_up_masks", "_down_masks", "_index")

    def __init__(self, elements, gen_masks, order, index=None):
        # Trusted constructor: the caller guarantees acyclic strict
        # generators, an order that lists every element after all elements
        # it reaches, and, if given, the index of each identifier; only the
        # sorted identifier order is checked.
        self.elements = tuple(elements)
        if list(self.elements) != sorted(self.elements):
            raise ValueError("poset elements must be in sorted identifier order")
        self.gen_masks = tuple(gen_masks)
        self.order = tuple(order)
        self._pred_masks = None
        self._up_masks = None
        self._down_masks = None
        self._index = {x: i for i, x in enumerate(self.elements)} if index is None else index

    @property
    def pred_masks(self) -> tuple:
        """The generating edges transposed: the predecessors of each i."""
        if self._pred_masks is None:
            self._pred_masks = tuple(transpose_masks(self.gen_masks))
        return self._pred_masks

    @property
    def up_masks(self) -> tuple:
        if self._up_masks is None:
            self._up_masks = tuple(dag_reach(self.gen_masks, self.order))
        return self._up_masks

    @property
    def down_masks(self) -> tuple:
        if self._down_masks is None:
            self._down_masks = tuple(dag_reach(self.pred_masks, reversed(self.order)))
        return self._down_masks

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self._index

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.up_masks == other.up_masks

    def __hash__(self):
        return hash((self.elements, self.up_masks))

    def __repr__(self):
        return f"Poset({len(self)} elements, {sum(m.bit_count() for m in self.up_masks)} relations)"

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(x) from None

    def leq(self, x, y) -> bool:
        return bool(self.up_masks[self.index(x)] >> self.index(y) & 1)

    def leq_idx(self, i, j) -> bool:
        return bool(self.up_masks[i] >> j & 1)

    def mask_from(self, members) -> int:
        return mask_of(self.index(x) for x in members)

    def ids_from(self, mask: int) -> tuple:
        return tuple(select(self.elements, mask))

    def is_down_closed(self, mask: int) -> bool:
        """True iff every generating predecessor of a member is a member."""
        return not reduce(or_, select(self.pred_masks, mask), 0) & ~mask

    def covers(self) -> list:
        """Covering pairs (lesser, greater): the transitive reduction."""
        return [(self.elements[i], self.elements[j]) for i, row in enumerate(_cover_masks(self)) for j in bits(row)]


def build_poset(elements, pairs) -> Poset:
    """Build a poset from elements and generating (lesser, greater) pairs.

    The stored relation is the reflexive-transitive closure of ``pairs``;
    pairs need not be covering pairs and reflexive pairs are harmless.  The
    edges without self-loops are kept as ``gen_masks``.  When every one of
    them ascends, from a smaller identifier to a larger one, the indices
    from the largest down are ``order``: each edge enters a larger index,
    so that listing puts every vertex after all it reaches, and no cycle
    can close, since no path returns to a smaller index.  Otherwise one
    depth-first sweep over the edges lists the elements in ``order``.  When
    that sweep meets a cycle the input is a preorder: only then does a
    Tarjan pass find the strongly connected parts, and AntisymmetryViolation
    names the two least elements of the first part with more than one
    element.
    """
    if not isinstance(elements, (list, tuple)):
        elements = list(elements)
    ids = sorted(set(elements))
    if len(ids) != len(elements):
        seen = set()
        for x in elements:
            if x in seen:
                raise DuplicateElement(x)
            seen.add(x)
    index = {x: i for i, x in enumerate(ids)}
    get = index.get
    adj = [0] * len(ids)
    ascending = True
    for lo, hi in pairs:
        i = get(lo)
        if i is None:
            raise UnknownElement(lo, "in pairs")
        j = get(hi)
        if j is None:
            raise UnknownElement(hi, "in pairs")
        if i != j:
            adj[i] |= 1 << j
            if i > j:
                ascending = False
    if ascending:
        return _generated_poset(ids, adj, range(len(ids) - 1, -1, -1), index)
    order = topo_order(adj)
    if order is None:
        for comp in tarjan_scc(adj):
            if len(comp) > 1:
                a, b = sorted(comp)[:2]
                raise AntisymmetryViolation(ids[a], ids[b])
        raise RuntimeError("the order sweep met a cycle that the Tarjan pass does not find")
    return _generated_poset(ids, adj, order, index)


def _generated_poset(elements, gen, order, index=None) -> Poset:
    """The poset generated by acyclic strict edges ``gen``, with ``order``
    listing every vertex after all vertices it reaches: up-sets close along
    ``order``, down-sets along its reverse over the transposed edges, each
    when first read.  ``index``, when given, maps each identifier to its
    position in ``elements``."""
    return Poset(elements, gen, order, index)


class OrderIdeal:
    """A down-closed subset of a poset, stored as a member bitmask.

    Construction validates down-closure, so every live instance is a real
    order ideal of its carrier; :meth:`_tested` wraps a mask already tested.
    """

    __slots__ = ("carrier", "mask")

    def __init__(self, carrier: Poset, members):
        mask = members if isinstance(members, int) else carrier.mask_from(members)
        if mask < 0 or mask >> len(carrier):
            raise ValueError(f"mask {mask:#x} has bits outside the {len(carrier)} elements")
        if not carrier.is_down_closed(mask):
            raise ValueError(f"not down-closed: {list(carrier.ids_from(mask))}")
        self.carrier = carrier
        self.mask = mask

    @classmethod
    def _tested(cls, carrier: Poset, mask: int):
        ideal = object.__new__(cls)
        ideal.carrier, ideal.mask = carrier, mask
        return ideal

    @property
    def members(self) -> tuple:
        return self.carrier.ids_from(self.mask)

    @property
    def name(self) -> str:
        """Canonical set-literal name, e.g. ``{a,b}``."""
        return "{" + ",".join(self.members) + "}"

    def __contains__(self, x):
        return bool(self.mask >> self.carrier.index(x) & 1)

    def __len__(self):
        return self.mask.bit_count()

    def __eq__(self, other):
        if not isinstance(other, OrderIdeal):
            return NotImplemented
        return self.carrier == other.carrier and self.mask == other.mask

    def __hash__(self):
        return hash((self.carrier, self.mask))

    def __repr__(self):
        return f"OrderIdeal({self.name})"


def iter_ideal_masks(poset: Poset, max_count=None):
    """Stream the bitmasks of every order ideal in canonical order.

    Canonical order: ascending cardinality, then lexicographic on the sorted
    member identifiers.  Ideals of one size are produced by extending each
    ideal m of the previous size by one minimal point x of its complement,
    and the walk (:func:`_ideal_walk`) keeps the mask of those points per
    ideal.  So an ideal costs one set probe per minimal point of its
    complement, one step per generating successor of the x it is first
    reached by, and its share of sorting its size class; nothing scans the
    complement.  Memory is the widest size class with its minimal-point
    masks, not the full count.  With ``max_count`` set, raises
    SizeBoundExceeded as soon as the total provably exceeds it, before any
    ideal of the size class that passes it is yielded.

    A size class is sorted, in descending order, by the mask's binary digits
    read from bit 0 up (``bin(mask)[:1:-1]``), which gives that order, since
    indices follow identifier order.  Of two distinct sets A and B of equal
    size, let i be the lowest element of their symmetric difference, say in
    A; A comes first lexicographically, since below i both hold the same
    members.  Their digit strings agree below index i, and A's reads ``1``
    at i.  B's string reaches index i, for otherwise B would lie within A's
    members below i and be smaller than A; so it reads ``0`` there, and A's
    string is the larger.
    """
    for mask, _, _ in _ideal_walk(poset, max_count):
        yield mask


def _ideal_walk(poset: Poset, max_count=None, rows=None):
    """Yield (mask, mins, union) per order ideal, in the order and with the
    cap of :func:`iter_ideal_masks`: ``mins`` is the mask of the minimal
    points of its complement, and ``union`` the union of ``rows`` over its
    members (0 without ``rows``).

    The complement of an ideal is an up-set, so a point is minimal in it
    exactly when none of its generating predecessors is; for the empty
    ideal these are the points without one.  So mins(m | x) is mins(m)
    less x, plus each generating successor w of x whose predecessors all
    lie in m | x: any other point minimal in the smaller complement was
    minimal before, since x is not among its predecessors.
    """
    succ = poset.gen_masks
    pred = poset.pred_masks
    if rows is None:
        rows = [0] * len(succ)
    room = float("inf") if max_count is None else max_count - 1
    layer = [(0, ((1 << len(succ)) - 1) & ~reduce(or_, succ, 0), 0)]
    yield layer[0]
    while True:
        grown = {}
        for m, mins, union in layer:
            rest = mins
            while rest:
                low = rest & -rest
                rest ^= low
                new = m | low
                if new in grown:
                    continue
                x = low.bit_length() - 1
                fresh = mins ^ low
                out = succ[x]
                while out:
                    w = out & -out
                    out ^= w
                    if not pred[w.bit_length() - 1] & ~new:
                        fresh |= w
                grown[new] = (new, fresh, union | rows[x])
                if len(grown) > room:
                    raise SizeBoundExceeded(max_count, "order ideal count")
        if not grown:
            return
        layer = grown.values()
        if len(grown) > 1:
            layer = sorted(layer, key=lambda item: bin(item[0])[:1:-1], reverse=True)
        room -= len(grown)
        yield from layer


def count_ideals(poset: Poset, max_count=None) -> int:
    """Exact number of order ideals, without enumerating them.

    Reads only the generating edges, in one walk over their bits that lists
    each element's generating successors and predecessors; all that follows
    runs on those lists.  A set of elements is an ideal exactly
    when it holds every generating predecessor of each of its members, since
    the order is their reflexive-transitive closure.  Each isolated point
    doubles the count.  The other elements are counted by a frontier DP over
    a linear extension that lists one connected component after another and
    takes the smallest-index ready element first; an element is ready once
    all its generating predecessors are listed.  A state records which of
    the processed elements that still have an unprocessed generating
    successor are in the ideal, and an element may join only if all its
    generating predecessors are in.  A redundant edge only keeps an element
    on the frontier longer.  The states after each step count the ideals of
    the processed prefix.

    Twins, elements with the same nonempty generating-successor set S,
    share one bit of the state that holds the conjunction of their
    memberships, found by their successor tuple: ints hash modulo 2^61 - 1,
    so as keys a chain's rows 2^(i+1) would share 61 buckets.  This is exact:

    * every later element that needs one twin lies in S, so it needs all
      of them, and only the conjunction decides whether it may join;
    * the twins' bit retires after the last element of S is processed,
      which is the same step for all of them;
    * each twin precedes every element of S in the extension, so when the
      next twin arrives its class's bit has neither retired nor been
      reused, and it joins as the conjunction of the old bit with its own;
    * merging states only adds their weights, so the weights still sum to
      the ideal count of the processed prefix.

    That prefix is down-closed, so its count never exceeds the final one,
    and with ``max_count`` set the DP raises SizeBoundExceeded as soon as
    the total provably exceeds it, like :func:`iter_ideal_masks`.  The same
    bound caps the live states, since each stands for at least one ideal.
    """
    succ = []
    pred = [[] for _ in poset.gen_masks]
    for v, row in enumerate(poset.gen_masks):
        out = []
        while row:
            low = row & -row
            row ^= low
            w = low.bit_length() - 1
            out.append(w)
            pred[w].append(v)
        succ.append(tuple(out))
    order, isolated = _generating_extension(succ, pred)
    total = 1 << isolated
    if max_count is not None and total > max_count:
        raise SizeBoundExceeded(max_count, "order ideal count")
    limit = None if max_count is None else max_count // total
    return total * _count_along(order, succ, pred, limit, max_count)


def _cover_masks(poset, lower=None, closed=None):
    """Upper cover masks, read off the generators; given a list ``lower``
    of zeros, the same pass fills in the lower covers, and given a list
    ``closed``, it receives the up-sets whenever mixed rows read them.

    Every upper cover of i is a generating successor of i, and one is a
    cover unless it lies strictly above another.  One pass along ``order``
    gives each element its height, the longest generating path to a sink.
    If u < w then u reaches w on such a path, so height(u) > height(w),
    and a row whose successors all have one height is all covers.  Only
    rows of mixed height read closed up-sets: the cached ones, else a
    closure made here and dropped, so no poset is closed by its covers.
    """
    gen = poset.gen_masks
    height = [0] * len(gen)
    mixed = []
    for v in poset.order:
        rest = gen[v]
        top, bottom = -1, len(gen)
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            if lower is not None:
                lower[w] |= 1 << v
            h = height[w]
            if h > top:
                top = h
            if h < bottom:
                bottom = h
            rest ^= low
        height[v] = top + 1
        if bottom < top:
            mixed.append(v)
    upper = list(gen)
    if mixed:
        up = poset._up_masks or dag_reach(gen, poset.order)
        if closed is not None:
            closed[:] = up
        for v in mixed:
            above = 0
            for w in bits(gen[v]):
                above |= up[w] ^ 1 << w
            upper[v] &= ~above
        if lower is not None:
            lower[:] = transpose_masks(upper)
    return upper


def _generating_extension(succ, pred):
    """The linear extension that lists each connected component of the
    generating edges in turn, smallest-index ready element first, and the
    number of isolated points it leaves out.  ``succ`` and ``pred`` list
    each element's generating successors and predecessors; one walk over
    them finds the components, in order of their least member."""
    order = []
    isolated = 0
    seen = [False] * len(succ)
    pending = [len(row) for row in pred]
    for start in range(len(succ)):
        if seen[start]:
            continue
        if not (succ[start] or pred[start]):
            isolated += 1
            continue
        seen[start] = True
        comp = [start]
        for v in comp:
            for row in (succ[v], pred[v]):
                for w in row:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
        comp.sort()
        ready = [v for v in comp if not pending[v]]  # ascending: a heap
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in succ[v]:
                pending[w] -= 1
                if not pending[w]:
                    heapq.heappush(ready, w)
    return order, isolated


def _count_along(order, succ, pred, limit, max_count):
    """Ideals of the listed elements by the frontier DP of
    :func:`count_ideals`, one state bit per twin class, reused once the
    class retires: when ``left[u]``, u's successors still to come, reaches
    0, which is at one step for all twins, read once."""
    slot = {}  # ascending generating successors -> the state bit of their twins
    bit_of = [0] * len(succ)
    left = [len(row) for row in succ]
    free = []
    width = 0
    states = {0: 1}
    for v in order:
        need = retire = 0
        for u in pred[v]:
            left[u] -= 1
            b = bit_of[u]
            if need & b:
                continue  # a twin of a predecessor already read
            need |= b
            if not left[u]:
                retire |= b
                heapq.heappush(free, b.bit_length() - 1)
        row = succ[v]
        twin = 0
        fresh = 0
        if row:
            b = slot.get(row)
            if b is None:
                if free:
                    b = 1 << heapq.heappop(free)
                else:
                    b = 1 << width
                    width += 1
                slot[row] = fresh = b
            else:
                twin = b
            bit_of[v] = b
        if retire or twin:
            keep = ~retire
            out_keep = keep & ~twin
            grown = {}
            get = grown.get
            for s, c in states.items():
                t = s & out_keep
                grown[t] = get(t, 0) + c
                if s & need == need:
                    t = s & keep | fresh
                    grown[t] = get(t, 0) + c
        else:  # every state keeps its key when v stays out
            grown = dict(states)
            for s, c in states.items():
                if s & need == need:
                    grown[s | fresh] = c if fresh else c + c
        if limit is not None and sum(grown.values()) > limit:
            raise SizeBoundExceeded(max_count, "order ideal count")
        states = grown
    return sum(states.values())


class _TableMap:
    """A total map between finite carriers, stored as image indices.

    The shared body of :class:`MonotoneMap` and ``lattice.LatticeHom``;
    each subclass's validating constructor is the one that checks its laws.
    """

    __slots__ = ("domain", "codomain", "image")

    def __init__(self, domain, codomain, image):
        self.domain = domain
        self.codomain = codomain
        self.image = tuple(image)

    @classmethod
    def identity(cls, carrier):
        return cls(carrier, carrier, range(len(carrier)))

    @property
    def table(self) -> dict:
        return {x: self.codomain.elements[self.image[i]] for i, x in enumerate(self.domain.elements)}

    def __call__(self, x):
        return self.codomain.elements[self.image[self.domain.index(x)]]

    def after(self, other):
        """Composition self . other (apply ``other`` first)."""
        if other.codomain != self.domain:
            raise ValueError("composition domains do not match")
        return type(self)(other.domain, self.codomain, (self.image[i] for i in other.image))

    def is_endo(self) -> bool:
        return self.domain == self.codomain

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.image == other.image
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.image))

    def __repr__(self):
        return f"{type(self).__name__}({self.table!r})"


class MonotoneMap(_TableMap):
    """A total order-preserving map between posets; build through
    :func:`is_monotone`."""

    __slots__ = ()


def _total_image(table, domain, codomain):
    """Image indices of a table between posets, read in one C-level pass
    when it has one entry per domain element; else the ordered scans name
    the first fault."""
    if len(table) == len(domain):
        try:
            return list(map(codomain._index.__getitem__, map(table.__getitem__, domain.elements)))
        except KeyError:
            pass
    for key in table:
        if key not in domain:
            raise UnknownElement(key, "not in the domain")
    image = []
    for x in domain.elements:
        if x not in table:
            raise UnknownElement(x, "no image supplied")
        image.append(codomain.index(table[x]))
    return image


def is_monotone(table, domain: Poset, codomain: Poset) -> MonotoneMap:
    """Validate a raw element table as a monotone map and wrap it.

    The identity of a poset onto itself passes at once.  Otherwise each
    generating edge i -> s of the domain, by index of i, is kept when s
    has the image of i or the images span a generating edge of the
    codomain; a map keeping every edge is monotone and closes nothing.
    From the first row with an edge left open, rows are tested on the
    preimages of the codomain's up-sets, closed along its ``order`` and
    cached nowhere.  Only a map that fails is scanned row by row over the
    domain's up-sets, so NotMonotone carries the first pair x <= y, in
    identifier order, whose images are not ordered.
    """
    image = _total_image(table, domain, codomain)
    if domain is codomain and image == list(range(len(image))):
        return MonotoneMap(domain, codomain, image)
    succ, gen = codomain.gen_masks, domain.gen_masks
    for first, (row, c) in enumerate(zip(gen, image)):
        up = succ[c]
        while row:
            low = row & -row
            d = image[low.bit_length() - 1]
            if d != c and not up >> d & 1:
                break
            row ^= low
        if row:
            break
    else:
        return MonotoneMap(domain, codomain, image)
    pre = [0] * len(codomain)
    for i, c in enumerate(image):
        pre[c] |= 1 << i
    pre = dag_reach(succ, codomain.order, pre)
    if not any(gen[i] & ~pre[image[i]] for i in range(first, len(gen))):
        return MonotoneMap(domain, codomain, image)
    for i, row in enumerate(domain.up_masks):
        missing = row & ~pre[image[i]]
        if missing:
            j = (missing & -missing).bit_length() - 1
            raise NotMonotone(domain.elements[i], domain.elements[j])
    raise RuntimeError("monotone check rejected a map that the row scan accepts")

"""Shared oracles and enumerations.

The brute_* functions are the independent routes the library is judged
against: they work from the definitions by exhaustive search and never call
the code paths they check.
"""

import heapq
import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from operator import or_

from dualfix import (
    AntisymmetryViolation,
    DuplicateElement,
    InvalidInput,
    LatticeHom,
    MonotoneMap,
    NotALattice,
    NotDistributive,
    OrderIdeal,
    Poset,
    QuotientNotAntisymmetric,
    QuotientPoset,
    SizeBoundExceeded,
    UnknownElement,
    build_poset,
    coequalizer_general,
    count_ideals,
    is_monotone,
    iter_ideal_masks,
)
from dualfix.bitgraph import bits, select, tarjan_scc, topo_order, transpose_masks
from dualfix.duality import _dual_on_irreducibles
from dualfix.fixpoint import _class_index
from dualfix.jsonio import ParseError
from dualfix.lattice import FiniteLattice, _irreducibles, _least_by_differences
from dualfix.poset import _cover_masks, _generated_poset, _total_image

LETTERS = "abcdefgh"


# ---------------------------------------------------------------- oracles


def closed_poset(elements, up):
    """The poset with the given closed up-sets, built without the library's
    closure: every strict relation a generator, elements listed by up-set
    size, and the cached rows filled with ``up`` and its transpose."""
    gen = [row & ~(1 << i) for i, row in enumerate(up)]
    poset = Poset(elements, gen, sorted(range(len(up)), key=lambda i: up[i].bit_count()))
    poset._up_masks = tuple(up)
    poset._down_masks = tuple(transpose_masks(up))
    return poset


def restrict(poset, indices):
    """Sub-poset on the given element indices, order inherited, by remapping
    each closed row bit by bit."""
    idxs = sorted(indices)
    pos = {v: k for k, v in enumerate(idxs)}
    up = [sum(1 << pos[w] for w in bits(poset.up_masks[v]) if w in pos) for v in idxs]
    return closed_poset([poset.elements[v] for v in idxs], up)


def gen_preorder(quotient):
    """Rows of a quotient's generating preorder over base elements: x is
    below every member of every class at or above its own."""
    cp = quotient.class_poset
    class_rows = []
    for row in cp.up_masks:
        members = 0
        for c in bits(row):
            members |= quotient.member_masks[c]
        class_rows.append(members)
    return tuple(class_rows[cp.index(quotient.class_name_of(x))] for x in quotient.base.elements)


def closure_rows(gen):
    """Reflexive-transitive closure of successor masks, by naive iteration
    to a fixed point."""
    rows = [row | 1 << i for i, row in enumerate(gen)]
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(rows):
            grown = row
            for j in bits(row):
                grown |= rows[j]
            if grown != row:
                rows[i] = grown
                changed = True
    return rows


def assert_generated(poset):
    """The poset's generators are strict and close to its order, and its
    down-sets are the transpose of its up-sets."""
    for i, row in enumerate(poset.gen_masks):
        assert not row >> i & 1, f"self-loop at {poset.elements[i]}"
    assert list(poset.up_masks) == closure_rows(poset.gen_masks)
    assert list(poset.down_masks) == transpose_masks(poset.up_masks)


def climbing_cover_masks(poset):
    """Lower and upper cover masks from the closed rows: the maximal
    elements strictly below each element, found by climbing to a maximal
    one and dropping its down-set."""
    up, down = poset.up_masks, poset.down_masks
    lower = []
    for i in range(len(poset)):
        rest = down[i] ^ (1 << i)
        covers = 0
        while rest:
            j = rest.bit_length() - 1
            while above := (up[j] & rest) ^ (1 << j):
                j = above.bit_length() - 1
            covers |= 1 << j
            rest &= ~down[j]
        lower.append(covers)
    return lower, transpose_masks(lower)


def closure_birkhoff(order):
    """(J, masks) when the order is a distributive lattice, else None, by
    the closed rows: J is the elements with exactly one lower cover and
    masks[a] those below a, built over the extension by down-set size.  It
    accepts when every minimal element is least, every element with two or
    more lower covers is their least upper bound, and J has exactly n
    ideals.  The first two make a -> masks[a] injective and order
    reflecting; the count makes it onto the ideals of J."""
    n = len(order)
    up, down = order.up_masks, order.down_masks
    lower, _ = climbing_cover_masks(order)
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


def two_loop_birkhoff(order):
    """(J, masks) when the order is a distributive lattice, else None, by
    the cover check with one loop over each element's lower covers for the
    union of their masks and gens, and a second over the points of that
    union of gens, dropping everything strictly below one of them: every
    element outside J must have as many lower covers as gens points, each
    lower cover's mask one point smaller than the union, and the masks
    (keyed by gens) distinct, one of them all of J."""
    n = len(order)
    lower = [0] * n
    _cover_masks(order, lower)
    irr = [a for a in range(n) if lower[a].bit_count() == 1]
    rank = {j: k for k, j in enumerate(irr)}
    masks = [0] * n
    gens = [0] * n
    below = [0] * len(irr)
    strictly_below = [0] * len(irr)
    for a in reversed(order.order):
        covers = lower[a]
        if not covers:
            continue
        c = covers.bit_length() - 1
        k = rank.get(a)
        if k is not None:
            below[k] = gens[c]
            strictly_below[k] = masks[c]
            masks[a] = masks[c] | 1 << k
            gens[a] = 1 << k
            continue
        size = masks[c].bit_count()
        mask = gen = 0
        for c in bits(covers):
            if masks[c].bit_count() != size:
                return None
            mask |= masks[c]
            gen |= gens[c]
        drop = 0
        for i in bits(gen):
            drop |= strictly_below[i]
        gen &= ~drop
        if gen.bit_count() != covers.bit_count() or mask.bit_count() != size + 1:
            return None
        masks[a] = mask
        gens[a] = gen
    if len(set(gens)) != n or (1 << len(irr)) - 1 not in masks:
        return None
    base = _generated_poset(
        [order.elements[j] for j in irr],
        transpose_masks(below),
        [rank[a] for a in order.order if a in rank],
    )
    return base, masks


def push_preserves_laws(image, domain, codomain):
    """The dual map of an image that keeps bottom and top, or None unless it
    preserves meet and join, by one push along the domain order's
    generating edges: per element, the union of its predecessors' ideals
    and of their images.  Every element whose ideal is not its
    predecessors' union must go to the union of their images; the others
    are the down-sets of base points, where the images and those unions
    give the dual by differences."""
    masks = domain.element_masks
    f = [codomain.element_masks[i] for i in image]
    below, joined = [0] * len(f), [0] * len(f)
    for w, succ in enumerate(domain.order.gen_masks):
        for a in bits(succ):
            below[a] |= masks[w]
            joined[a] |= f[w]
    principal = [0] * len(domain.ideal_base)
    for a, (ideal, lower) in enumerate(zip(masks, below)):
        if ideal != lower:
            principal[(ideal ^ lower).bit_length() - 1] = a
        elif f[a] != joined[a]:
            return None
    return _least_by_differences([f[a] for a in principal], [joined[a] for a in principal], domain.ideal_base, codomain.ideal_base)


def text_load_obj(path):
    """A JSON document read through a text-mode file, as json.load reads
    it, with its failures as ParseError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def ordered_poset_from_obj(obj):
    """The poset of a document, every part checked in document order before
    anything is built."""
    if not isinstance(obj, dict):
        raise ParseError("poset document must be a JSON object")
    elements = obj.get("elements")
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise ParseError('"elements" must be a list of strings')
    pairs = obj.get("leq", [])
    if not isinstance(pairs, list):
        raise ParseError('"leq" must be a list of [lesser, greater] pairs')
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str)):
            raise ParseError(f'"leq" entry {p!r} is not a [lesser, greater] pair')
    return build_poset(elements, pairs)


def closure_is_down_closed(poset, mask):
    """Down-closure by the closed rows: no member has anything outside the
    mask below it."""
    return all(not poset.down_masks[i] & ~mask for i in bits(mask))


def lex_key(mask):
    """Canonical sort key of a set within its size class: the tuple of its
    member indices."""
    return tuple(bits(mask))


def lex_key_ideal_masks(poset):
    """Every ideal mask in canonical order, grown size by size by one
    complement point none of whose generating predecessors is in the
    complement, each size class sorted by :func:`lex_key`."""
    pred = transpose_masks(poset.gen_masks)
    full = (1 << len(poset)) - 1
    out = [0]
    layer = [0]
    while layer:
        grown = set()
        for m in layer:
            comp = full & ~m
            grown.update(m | 1 << i for i in bits(comp) if not pred[i] & comp)
        layer = sorted(grown, key=lex_key)
        out += layer
    return out


def capped_prefix(masks, max_count):
    """What a stream of ``masks``, in canonical order, yields when capped at
    ``max_count``, and whether it then raises: every size class whose
    running total stays within the cap, and nothing of the first class
    that passes it."""
    through = {}  # size -> running total through that size class
    for k, m in enumerate(masks):
        through[m.bit_count()] = k + 1
    prefix = [m for m in masks if through[m.bit_count()] <= max_count]
    return prefix, len(prefix) < len(masks)


def union_member_masks(quotient):
    """Member masks of the fix-point lattice of a quotient: per quotient
    ideal, in canonical order, the union of its classes' member masks."""
    masks = quotient.member_masks
    return [reduce(or_, select(masks, q), 0) for q in lex_key_ideal_masks(quotient.class_poset)]


def complement_scan_ideal_lattice(base):
    """The ideal lattice of a poset, its covers found by scanning the
    complement of each ideal for the points whose closed down-set meets the
    complement in the point alone."""
    masks = lex_key_ideal_masks(base)
    items = sorted((OrderIdeal(base, m).name, m) for m in masks)
    names = [nm for nm, _ in items]
    emasks = [m for _, m in items]
    index = {m: i for i, m in enumerate(emasks)}
    down = base.down_masks
    full = (1 << len(base)) - 1
    covers = [0] * len(emasks)
    for i, m in enumerate(emasks):
        comp = full & ~m
        for x in bits(comp):
            if down[x] & comp == 1 << x:
                covers[i] |= 1 << index[m | 1 << x]
    order = _generated_poset(names, covers, [index[m] for m in reversed(masks)])
    first, second = lowest_two(transpose_masks(covers))
    return FiniteLattice(order, base, emasks, [index[d] for d in down], first, second)


def lowest_two(rows):
    """Per row of a mask list, its lowest and next lowest set bit, -1 where
    it has fewer."""
    first, second = [], []
    for row in rows:
        got = list(bits(row))[:2] + [-1, -1]
        first.append(got[0])
        second.append(got[1])
    return first, second


def closure_ideal_masks(poset):
    """Every ideal mask in canonical order, grown size by size by one
    complement point whose closed down-set meets the complement in itself."""
    down = poset.down_masks
    full = (1 << len(poset)) - 1
    out = [0]
    layer = [0]
    while layer:
        grown = set()
        for m in layer:
            comp = full & ~m
            for i in bits(comp):
                if down[i] & comp == 1 << i:
                    grown.add(m | 1 << i)
        layer = sorted(grown, key=lex_key)
        out += layer
    return out


def covers_count_ideals(poset, max_count=None):
    """Exact ideal count by the cover-graph frontier DP: the product over
    the components of the cover graph, each counted over its
    smallest-index-ready extension with one state bit per frontier element.
    Reads the closed up-sets through the covers."""
    lower, upper = climbing_cover_masks(poset)
    total = 1
    for order in _component_extensions(lower, upper):
        limit = None if max_count is None else max_count // total
        total *= _count_component(order, lower, upper, limit, max_count)
    return total


def _component_extensions(lower, upper):
    """Per connected component of the cover graph, its linear extension that
    takes the smallest-index ready element first."""
    seen = 0
    for start in range(len(lower)):
        if seen >> start & 1:
            continue
        comp = todo = 1 << start
        while todo:
            reach = 0
            for v in bits(todo):
                reach |= lower[v] | upper[v]
            todo = reach & ~comp
            comp |= todo
        seen |= comp
        pending = {v: lower[v].bit_count() for v in bits(comp)}
        ready = [v for v, k in pending.items() if k == 0]  # ascending: a heap
        order = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in bits(upper[v]):
                pending[w] -= 1
                if not pending[w]:
                    heapq.heappush(ready, w)
        yield order


def _count_component(order, lower, upper, limit, max_count):
    """Ideals of one component by the frontier DP.

    Each frontier element holds a bit position of the state, reused once it
    leaves, so a state is as wide as the frontier and not as the poset.
    After each step the states count the ideals of the processed prefix,
    which is down-closed, so that sum never exceeds the final count and
    passing ``limit`` proves the total over the cap.  It also bounds the
    live states, since each one stands for at least one of those ideals.
    """
    unseen_up = {v: upper[v].bit_count() for v in order}
    slot = {}
    free = []
    states = {0: 1}
    for v in order:
        need = retire = 0
        for u in bits(lower[v]):
            b = 1 << slot[u]
            need |= b
            unseen_up[u] -= 1
            if not unseen_up[u]:
                retire |= b
                heapq.heappush(free, slot.pop(u))
        bit_v = 0
        if upper[v]:
            slot[v] = heapq.heappop(free) if free else len(slot)
            bit_v = 1 << slot[v]
        keep = ~retire
        grown = {}
        for s, c in states.items():
            t = s & keep
            grown[t] = grown.get(t, 0) + c
            if s & need == need:
                t |= bit_v
                grown[t] = grown.get(t, 0) + c
        if limit is not None and sum(grown.values()) > limit:
            raise SizeBoundExceeded(max_count, "order ideal count")
        states = grown
    return sum(states.values())


def mask_count_ideals(poset, max_count=None):
    """The ideal count by the frontier DP of ``count_ideals`` as it ran on
    bitmasks: the extension's components closed as masks, an n-bit mask of
    processed elements, and twins keyed by their successor mask.  The
    differential oracle for the count on index lists."""
    succ = poset.gen_masks
    pred = poset.pred_masks
    order, isolated = mask_generating_extension(succ, pred)
    total = 1 << isolated
    if max_count is not None and total > max_count:
        raise SizeBoundExceeded(max_count, "order ideal count")
    limit = None if max_count is None else max_count // total
    return total * mask_count_along(order, succ, pred, limit, max_count)


def mask_generating_extension(succ, pred):
    """The linear extension that lists each connected component of the
    generating edges in turn, smallest-index ready element first, and the
    number of isolated points it leaves out."""
    order = []
    isolated = 0
    seen = 0
    for start in range(len(succ)):
        if seen >> start & 1:
            continue
        if not succ[start] | pred[start]:
            isolated += 1
            continue
        comp = todo = 1 << start
        while todo:
            reach = 0
            for v in bits(todo):
                reach |= succ[v] | pred[v]
            todo = reach & ~comp
            comp |= todo
        seen |= comp
        pending = {v: pred[v].bit_count() for v in bits(comp)}
        ready = [v for v, k in pending.items() if not k]  # ascending: a heap
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in bits(succ[v]):
                pending[w] -= 1
                if not pending[w]:
                    heapq.heappush(ready, w)
    return order, isolated


def mask_count_along(order, succ, pred, limit, max_count):
    """Ideals of the listed elements by the frontier DP of
    :func:`mask_count_ideals`, one state bit per twin class, reused once the
    class retires."""
    slot = {}  # generating-successor mask -> the state bit of its twins
    bit_of = [0] * len(succ)
    free = []
    width = 0
    done = 0
    states = {0: 1}
    for v in order:
        done |= 1 << v
        need = retire = 0
        rest = pred[v]
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            b = bit_of[u]
            if need & b:
                continue  # a twin of a predecessor already read
            need |= b
            if not succ[u] & ~done:
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


def brute_closure_pairs(elements, pairs):
    """Reflexive-transitive closure by naive expansion over pair sets."""
    rel = {(x, x) for x in elements} | {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def all_ideals(poset):
    """Every order ideal of the poset, in canonical order."""
    return [OrderIdeal(poset, m) for m in iter_ideal_masks(poset)]


def down_set(poset, x):
    """The principal ideal of x: everything at or below it."""
    return OrderIdeal(poset, poset.down_masks[poset.index(x)])


def brute_ideal_sets(poset):
    """Every down-closed subset, by filtering the full powerset."""
    els = poset.elements
    out = []
    for r in range(len(els) + 1):
        for combo in combinations(els, r):
            s = set(combo)
            if all(y in s for x in s for y in els if poset.leq(y, x)):
                out.append(frozenset(s))
    return out


def brute_is_monotone(image, poset):
    return all(
        poset.leq_idx(image[i], image[j])
        for i in range(len(poset))
        for j in range(len(poset))
        if poset.leq_idx(i, j)
    )


def brute_join_irreducibles(lat):
    """Definitional scan: non-bottom and never a join of two smaller elements."""
    out = []
    for x in lat.elements:
        if x == lat.bot:
            continue
        if not any(
            lat.join(a, b) == x
            for a in lat.elements
            for b in lat.elements
            if a != x and b != x
        ):
            out.append(x)
    return sorted(out)


def brute_dual_table(hom):
    """min{x | y in f(principal ideal of x)} by direct candidate search."""
    p, q = hom.domain.ideal_base, hom.codomain.ideal_base
    table = {}
    for y in q.elements:
        candidates = []
        for x in p.elements:
            image_name = hom(down_set(p, x).name)
            image_mask = hom.codomain.element_masks[hom.codomain.index(image_name)]
            if image_mask >> q.index(y) & 1:
                candidates.append(x)
        least = [m for m in candidates if all(p.leq(m, x) for x in candidates)]
        assert len(least) == 1, f"no unique minimum for {y}: {candidates}"
        table[y] = least[0]
    return table


def unchecked(cls, table, domain, codomain):
    """A MonotoneMap or LatticeHom on a table, with no check of its laws,
    for deliberately broken maps; such a LatticeHom carries no dual."""
    if cls is LatticeHom:
        return cls(domain, codomain, _total_image(table, domain.order, codomain.order), None)
    return cls(domain, codomain, _total_image(table, domain, codomain))


class NoMinimum(InvalidInput):
    """The candidate set for a dual-map value has no unique least element."""

    code = "NoMinimum"

    def __init__(self, y):
        super().__init__(f"no least preimage point for {y!r}", witness=[y])


def candidate_dual_map(hom):
    """The dual map by the pair loop: per base point y of the codomain, the
    candidates x with y in f(principal ideal of x), and the first of them
    below all others; NoMinimum at the first y without one."""
    dom, cod = hom.domain, hom.codomain
    p, q = dom.ideal_base, cod.ideal_base
    images = [cod.element_masks[hom.image[dom.ideal_index(p.down_masks[x])]] for x in range(len(p))]
    table = {}
    for y in range(len(q)):
        candidates = 0
        for x in range(len(p)):
            if images[x] >> y & 1:
                candidates |= 1 << x
        if not candidates:
            raise NoMinimum(q.elements[y])
        least = None
        for x in bits(candidates):
            if candidates & ~p.up_masks[x] == 0:
                least = x
                break
        if least is None:
            raise NoMinimum(q.elements[y])
        table[q.elements[y]] = p.elements[least]
    return is_monotone(table, q, p)


class NotAnIdealOfC(InvalidInput):
    """A set of class names that is not down-closed in the quotient."""

    code = "NotAnIdealOfC"

    def __init__(self, names):
        super().__init__(f"class set {sorted(names)} is not down-closed in the quotient", witness=sorted(names))


def hom_quotient(hom):
    """Quotient for an explicit endomorphism: dualize, then quotient.

    The dual is the one the hom carries, on the join-irreducibles of the
    domain, named as lattice elements: base point x of the Birkhoff
    representation becomes the element whose ideal is the down-set of x.
    A lattice read from an order has that J as its base, so its quotient
    is ``fixpoints_via_duality(hom.dual).quotient``, which the CLI answers
    from as it does for a monotone map.
    """
    return coequalizer_general(_dual_on_irreducibles(hom))


def algorithm1(hom, ideal, quotient=None):
    """Fix-point of an explicit endomorphism selected by a quotient ideal.

    ``ideal`` is an OrderIdeal of the quotient's class poset (or an iterable
    of class names, checked for down-closure).  The union of its classes is
    a set of join-irreducibles of the domain; their join, the element whose
    ideal is the union of theirs, is returned.  The empty ideal gives
    bottom, the full one gives top.  The CLI's explicit ``--list`` writes
    ``lat.elements[lat.ideal_index(m.mask)]`` for each member m of
    ``fixpoints_via_duality(hom.dual)`` instead.
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
    irr = quo.base.ids_from(reduce(or_, select(quo.member_masks, qmask), 0))
    out = reduce(or_, [lat.element_masks[lat.index(x)] for x in irr], 0)
    return lat.elements[lat.ideal_index(out)]


def brute_preorder_pairs(poset, phi):
    """Smallest preorder extending the order with x ~ phi(x), by naive closure."""
    pairs = [(x, y) for x in poset.elements for y in poset.elements if poset.leq(x, y)]
    for x in poset.elements:
        pairs.append((x, phi(x)))
        pairs.append((phi(x), x))
    return brute_closure_pairs(poset.elements, pairs)


def sweep_build_poset(elements, pairs):
    """build_poset with the depth-first sweep always run: the same checks in
    the same order, then ``topo_order`` on the strict edges, and the Tarjan
    pass for the AntisymmetryViolation witness when it meets a cycle."""
    seen = set()
    for x in elements:
        if x in seen:
            raise DuplicateElement(x)
        seen.add(x)
    ids = sorted(seen)
    index = {x: i for i, x in enumerate(ids)}
    adj = [0] * len(ids)
    for lo, hi in pairs:
        if lo not in index:
            raise UnknownElement(lo, "in pairs")
        if hi not in index:
            raise UnknownElement(hi, "in pairs")
        i, j = index[lo], index[hi]
        if i != j:
            adj[i] |= 1 << j
    order = topo_order(adj)
    if order is None:
        for comp in tarjan_scc(adj):
            if len(comp) > 1:
                a, b = sorted(comp)[:2]
                raise AntisymmetryViolation(ids[a], ids[b])
        raise RuntimeError("the order sweep met a cycle that the Tarjan pass does not find")
    return _generated_poset(ids, adj, order)


def relabelled_irreducibles(lat):
    """(J(L), pos) by relabelling the ideal base: the element whose ideal is
    each base point's closed down-set, J listed by element index, and the
    base's generators and order carried over."""
    base = lat.ideal_base
    elems = [lat.ideal_index(down) for down in base.down_masks]
    rank = {e: k for k, e in enumerate(sorted(elems))}
    pos = [rank[e] for e in elems]
    gen = [0] * len(pos)
    for x, succ in enumerate(base.gen_masks):
        for y in bits(succ):
            gen[pos[x]] |= 1 << pos[y]
    irr = _generated_poset([lat.elements[e] for e in sorted(elems)], gen, [pos[x] for x in base.order])
    return irr, pos


def birkhoff_eta(lat):
    """Map each lattice element to its ideal of join-irreducibles below.

    This renames the stored masks onto ``join_irreducibles(lat)``.  On a
    validated distributive lattice it is a bijection onto the ideal family
    of the irreducibles and preserves meet, join, bottom and top; both
    halves of the bijection are asserted here.
    """
    irr, pos = _irreducibles(lat)
    out = {}
    for a, mask in zip(lat.elements, lat.element_masks):
        m = 0
        for x in bits(mask):
            m |= 1 << pos[x]
        out[a] = OrderIdeal(irr, m)
    assert len({ideal.mask for ideal in out.values()}) == len(out), "irreducible-ideal map is not injective"
    assert count_ideals(irr, max_count=len(out)) == len(out), "irreducible-ideal map is not onto the ideal family"
    return out


def scan_monotone_witness(image, domain, codomain):
    """First pair x <= y, in identifier order, whose images are not
    ordered, by scanning every closed pair; None for a monotone image."""
    for i in range(len(domain)):
        for j in bits(domain.up_masks[i]):
            if not codomain.leq_idx(image[i], image[j]):
                return (domain.elements[i], domain.elements[j])
    return None


def closure_coequalizer(phi):
    """The coequalizer built from the closed order: condense the strongly
    connected parts of the closed rows plus the map edges, close the
    condensation class by class, then remap rows to canonical classes."""
    base = phi.domain
    n = len(base)
    adj = list(base.up_masks)
    for i in range(n):
        j = phi.image[i]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    comps = tarjan_scc(adj)
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    reach = [0] * len(comps)
    for ci, comp in enumerate(comps):
        r = 1 << ci
        for v in comp:
            for w in bits(adj[v]):
                if comp_of[w] != ci:
                    r |= reach[comp_of[w]]
        reach[ci] = r
    groups = sorted(sorted(c) for c in comps)
    class_idx = _class_index(groups, n)
    canon = [class_idx[comp[0]] for comp in comps]
    up = [0] * len(comps)
    for e, r in enumerate(reach):
        up[canon[e]] = sum(1 << canon[e2] for e2 in bits(r))
    least = [base.elements[group[0]] for group in groups]
    return QuotientPoset(base, groups, class_idx, closed_poset(least, up))


class UnionFind:
    """Array union-find with path compression."""

    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while i != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def groups(self):
        """Members per root, each list ascending, keyed by root index."""
        out = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return out


def union_find_components(phi):
    """The components quotient built on its own: union-find merges each x
    with its image, every closed up-set is pushed onto the classes, and a
    Tarjan pass over the class rows either meets a cycle, whose two least
    classes are the QuotientNotAntisymmetric witness, or closes the class
    order."""
    base = phi.domain
    n = len(base)
    uf = UnionFind(n)
    for i in range(n):
        uf.union(i, phi.image[i])
    groups = sorted(uf.groups().values())
    class_idx = _class_index(groups, n)
    names = [f"[{base.elements[group[0]]}]" for group in groups]
    m = len(groups)
    cadj = [0] * m
    for i in range(n):
        row = 0
        for j in bits(base.up_masks[i]):
            row |= 1 << class_idx[j]
        cadj[class_idx[i]] |= row
    comps = tarjan_scc(cadj)
    for comp in comps:
        if len(comp) > 1:
            a, b = sorted(names[c] for c in comp)[:2]
            raise QuotientNotAntisymmetric(a, b)
    gen = [row & ~(1 << c) for c, row in enumerate(cadj)]
    graph = _generated_poset([base.elements[group[0]] for group in groups], gen, [c[0] for c in comps])
    return QuotientPoset(base, groups, class_idx, graph)


def brute_components_witness(phi):
    """The canonical QuotientNotAntisymmetric witness, from naive closures:
    map components close x ~ phi(x), classes are the mutual pairs of the
    closed order plus x ~ phi(x).  Among the components sorted by least
    member, the first that shares a class with an earlier one is named
    after the earliest component of that class; None when no class holds
    two components."""
    base = phi.domain
    n = len(base)
    edges = [0] * n
    for i, j in enumerate(phi.image):
        edges[i] |= 1 << j
        edges[j] |= 1 << i
    linked = closure_rows(edges)
    pre = closure_rows([up | e for up, e in zip(base.up_masks, edges)])
    first = {}
    for least in sorted({(row & -row).bit_length() - 1 for row in linked}):
        cls = sum(1 << y for y in bits(pre[least]) if pre[y] >> least & 1)
        if cls in first:
            return (f"[{base.elements[first[cls]]}]", f"[{base.elements[least]}]")
        first[cls] = least
    return None

def brute_lattice_witness(order):
    """The table-based scans: fill n×n meet and join tables pair by pair in
    identifier order, raising NotALattice at the first pair without a bound,
    then raise NotDistributive at the first triple of the full cubic scan."""
    n = len(order)
    down, up = order.down_masks, order.up_masks
    by_down = {down[k]: k for k in range(n)}
    by_up = {up[k]: k for k in range(n)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g = by_down.get(down[i] & down[j])
            if g is None:
                raise NotALattice(order.elements[i], order.elements[j], "greatest lower bound")
            l = by_up.get(up[i] & up[j])
            if l is None:
                raise NotALattice(order.elements[i], order.elements[j], "least upper bound")
            meet[i][j] = meet[j][i] = g
            join[i][j] = join[j][i] = l
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    raise NotDistributive(order.elements[a], order.elements[b], order.elements[c])


def climbing_preserves_laws(image, domain, codomain):
    """Whether an image that keeps bottom and top preserves meet and join,
    by one join and one meet check per element against the base.

    With F(a) the image's mask over the codomain base, it checks for every
    a above bottom and one maximal base point x in a that
    F(a) = F(a - x) | F(down-set of x), and for every a below top and one
    minimal point x outside a that F(a) = F(a + x) & F(B - up-set of x).
    Both hold for a homomorphism.  Conversely, by induction on |a| from
    F(bottom) = 0, the first makes F(a) the union of F(down-set of x) over
    x in a, which is additive in a, so F preserves joins; dually, from
    F(top) = all, the second makes F preserve meets.  x is found by
    climbing the closed base order from the highest (lowest) bit.
    """
    base = domain.ideal_base
    up, down = base.up_masks, base.down_masks
    full = (1 << len(base)) - 1
    index = domain.ideal_index
    f = [codomain.element_masks[i] for i in image]
    for a, mask in enumerate(domain.element_masks):
        if mask:
            x = mask.bit_length() - 1
            while above := (up[x] & mask) ^ (1 << x):
                x = above.bit_length() - 1
            if f[a] != f[index(mask ^ 1 << x)] | f[index(down[x])]:
                return False
        if mask != full:
            rest = full & ~mask
            x = (rest & -rest).bit_length() - 1
            while below := (down[x] & rest) ^ (1 << x):
                x = (below & -below).bit_length() - 1
            if f[a] != f[index(mask | 1 << x)] & f[index(full & ~up[x])]:
                return False
    return True


def inclusion_rows(masks):
    """Up rows of a family of sets under inclusion, by the pairwise scan."""
    return [sum(1 << j for j, mj in enumerate(masks) if mi & ~mj == 0) for mi in masks]


class MaxStepsExceeded(Exception):
    """Iteration was cut off before the walk could settle or close a cycle."""


@dataclass(frozen=True)
class CycleReport:
    """A closed orbit hit by iteration: its entry element and length."""

    entry: str
    length: int


def kleene_iterate(hom, start, max_steps=None):
    """Iterate x -> f(x) from ``start`` until fixed or a cycle closes: the
    paper's baseline, "iterate f until a fix-point is reached".

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


# ----------------------------------------------------------- enumerations


@lru_cache(maxsize=None)
def labeled_posets(n):
    """Every poset on n labeled elements a..; A001035 counts 1,1,3,19,219,4231."""
    ids = list(LETTERS[:n])
    if n == 0:
        return (build_poset([], []),)
    out = []
    slots = list(combinations(range(n), 2))
    for choice in product((0, 1, 2), repeat=len(slots)):
        rel = [1 << i for i in range(n)]
        for (i, j), c in zip(slots, choice):
            if c == 1:
                rel[i] |= 1 << j
            elif c == 2:
                rel[j] |= 1 << i
        transitive = True
        for i in range(n):
            row = rel[i]
            acc = row
            for k in bits(row):
                acc |= rel[k]
            if acc != row:
                transitive = False
                break
        if transitive:
            out.append(closed_poset(ids, rel))
    return tuple(out)


def _canonical_form(up_masks):
    """Isomorphism-invariant key: minimal strict-pair tuple over the
    relabelings consistent with a refined per-element invariant."""
    n = len(up_masks)
    strict = [(i, j) for i in range(n) for j in bits(up_masks[i] ^ (1 << i))]
    if not strict:
        return (n,)
    down_masks = [0] * n
    for i in range(n):
        for j in bits(up_masks[i]):
            down_masks[j] |= 1 << i
    inv = [(up_masks[i].bit_count(), down_masks[i].bit_count()) for i in range(n)]
    for _ in range(2):
        inv = [
            (
                inv[i],
                tuple(sorted(inv[j] for j in bits(up_masks[i] ^ (1 << i)))),
                tuple(sorted(inv[j] for j in bits(down_masks[i] ^ (1 << i)))),
            )
            for i in range(n)
        ]
    order = sorted(range(n), key=lambda i: (inv[i], i))
    groups = []
    for i in order:
        if groups and inv[groups[-1][-1]] == inv[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    best = None
    for arrangement in product(*(permutations(g) for g in groups)):
        pos = {}
        k = 0
        for block in arrangement:
            for i in block:
                pos[i] = k
                k += 1
        key = tuple(sorted((pos[i], pos[j]) for i, j in strict))
        if best is None or key < best:
            best = key
    return (n,) + best


@lru_cache(maxsize=None)
def noniso_posets(n):
    """One representative per isomorphism class; A000112 counts 1,1,2,5,16,63,318.

    Built by extending each smaller poset with one new maximal element whose
    strict down-set ranges over all order ideals; every poset arises this way
    because removing a maximal element leaves a poset.
    """
    if n == 0:
        return (build_poset([], []),)
    ids = list(LETTERS[:n])
    new_bit = 1 << (n - 1)
    seen = {}
    for smaller in noniso_posets(n - 1):
        for ideal_mask in iter_ideal_masks(smaller):
            up = [
                smaller.up_masks[i] | (new_bit if ideal_mask >> i & 1 else 0)
                for i in range(n - 1)
            ]
            up.append(new_bit)
            canon = _canonical_form(up)
            if canon not in seen:
                seen[canon] = closed_poset(ids, up)
    return tuple(seen.values())


def noniso_posets_upto(n):
    out = []
    for k in range(n + 1):
        out.extend(noniso_posets(k))
    return out


def monotone_selfmaps(poset):
    """Every monotone self-map, by filtering all tables definitionally."""
    n = len(poset)
    if n == 0:
        return [MonotoneMap(poset, poset, ())]
    strict = [
        (i, j)
        for i in range(n)
        for j in bits(poset.up_masks[i] ^ (1 << i))
    ]
    out = []
    for image in product(range(n), repeat=n):
        if all(poset.leq_idx(image[i], image[j]) for i, j in strict):
            out.append(MonotoneMap(poset, poset, image))
    return out


def random_poset(rng, n, prefix="e"):
    ids = [f"{prefix}{k:02d}" for k in range(n)]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    p = rng.choice([0.1, 0.2, 0.3, 0.5])
    pairs = [
        (shuffled[i], shuffled[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return build_poset(ids, pairs)


def antichain_shape(k):
    """Elements and generating pairs of a k-element antichain."""
    return [str(i) for i in range(k)], []


def grid_shape(rows, cols):
    """Elements and covering pairs of the product of a rows-chain and a
    cols-chain."""
    elements = [f"{r}x{c}" for r in range(rows) for c in range(cols)]
    pairs = [(f"{r}x{c}", f"{r + 1}x{c}") for r in range(rows - 1) for c in range(cols)]
    pairs += [(f"{r}x{c}", f"{r}x{c + 1}") for r in range(rows) for c in range(cols - 1)]
    return elements, pairs


def ordinal_sum(*shapes):
    """The ordinal sum of shapes, each below the next: every maximal element
    of one shape is paired with every minimal element of the next."""
    elements, pairs, tops = [], [], []
    for k, (elems, rel) in enumerate(shapes):
        name = {x: f"{k}.{x}" for x in elems}
        elements += name.values()
        pairs += [(name[x], name[y]) for x, y in rel]
        uppers = {y for _, y in rel}
        lowers = {x for x, _ in rel}
        pairs += [(t, name[x]) for t in tops for x in elems if x not in uppers]
        tops = [name[x] for x in elems if x not in lowers]
    return elements, pairs


def layered_shape(layers, width):
    """The ordinal sum of ``layers`` antichains of ``width`` elements."""
    return ordinal_sum(*[antichain_shape(width)] * layers)


def fresh_names(poset, rng, naming, prefix="n"):
    """A renaming of the poset's elements to fresh names: ``shuffled`` at
    random, ``reversed`` so that each element is named before everything
    below it, or ``ascending`` so that it is named after everything below
    it."""
    fresh = [f"{prefix}{i:03d}" for i in range(len(poset))]
    if naming == "shuffled":
        rng.shuffle(fresh)
        ranked = poset.elements
    else:
        sign = 1 if naming == "ascending" else -1
        ranked = sorted(poset.elements, key=lambda x: sign * poset.down_masks[poset.index(x)].bit_count())
    return dict(zip(ranked, fresh))


def renamed_shape(shape, rng, naming, prefix="n"):
    """The shape's elements and pairs under :func:`fresh_names`."""
    elements, pairs = shape
    rename = fresh_names(build_poset(elements, pairs), rng, naming, prefix)
    return sorted(rename.values()), [(rename[x], rename[y]) for x, y in pairs]


def random_monotone_between(rng, domain, codomain):
    """Random monotone map: assign images along a linear extension, each
    constrained above the images of everything already below."""
    n, m = len(domain), len(codomain)
    if n == 0:
        return MonotoneMap(domain, codomain, ())
    order = sorted(range(n), key=lambda i: domain.down_masks[i].bit_count())
    full = (1 << m) - 1
    for _ in range(50):
        image = [0] * n
        ok = True
        for v in order:
            allowed = full
            for w in bits(domain.down_masks[v] ^ (1 << v)):
                allowed &= codomain.up_masks[image[w]]
            if not allowed:
                ok = False
                break
            image[v] = rng.choice(list(bits(allowed)))
        if ok:
            return MonotoneMap(domain, codomain, image)
    return MonotoneMap(domain, codomain, [rng.randrange(m)] * n)

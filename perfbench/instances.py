"""Seeded benchmark instances with closed-form expected answers.

Every instance is a poset built from a few families (chain, antichain,
grid, layered DAG) glued by disjoint union and ordinal sum, together with a
monotone self-map whose fix-point structure is known in closed form:

- identity: chain n has n+1 fix-points, antichain k has 2^k, an R x C grid
  has C(R+C, R), L layers of width w have L(2^w - 1) + 1;
- collapse (each component onto one of its elements): 2 per component;
- shift and block-floor on a chain: one class, or one class per block;
- row projection on a grid: one class per row, R+1 fix-points;
- swapping two isomorphic copies: the count of one copy;
- a disjoint union multiplies counts, an ordinal sum gives c1 + c2 - 1.

The expected quotient classes, class covers and counts are computed here,
never by ``dualfix``.  Nothing in this module imports the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

# Counts above these are refused at generation: `fixpoints --count` walks
# every ideal, so one 10 x 10 grid already takes seconds.
MAX_COUNT = 1 << 15
MAX_LIST = 10_000


@dataclass
class Part:
    """A poset with a monotone self-map and what its quotient must be.

    Indices are generator indices; ``names`` maps them to identifiers.
    """

    names: list
    covers: list  # (lower, upper) covering pairs; they generate the order
    image: list  # the self-map, index -> index
    classes: list  # expected quotient classes, lists of indices
    count: int  # fix-points = order ideals of the quotient
    relations: int  # pairs x <= y of the poset
    minimal: list
    maximal: list
    probe: tuple | None  # a late covering pair (a, b); swapping a and b breaks monotonicity


def chain(prefix, n, kind="identity", block=1):
    names = [f"{prefix}c{i:04d}" for i in range(n)]
    covers = [(i, i + 1) for i in range(n - 1)]
    common = dict(relations=n * (n + 1) // 2, minimal=[0], maximal=[n - 1], probe=(n - 2, n - 1) if n >= 2 else None)
    if kind == "identity":
        return Part(names, covers, list(range(n)), [[i] for i in range(n)], n + 1, **common)
    if kind == "collapse":
        return Part(names, covers, [0] * n, [list(range(n))], 2, **common)
    if kind == "shift":
        return Part(names, covers, [min(i + 1, n - 1) for i in range(n)], [list(range(n))], 2, **common)
    if kind == "block":
        blocks = [list(range(s, min(s + block, n))) for s in range(0, n, block)]
        return Part(names, covers, [block * (i // block) for i in range(n)], blocks, len(blocks) + 1, **common)
    raise ValueError(f"chain map {kind!r}")


def antichain(prefix, k):
    names = [f"{prefix}a{i:02d}" for i in range(k)]
    every = list(range(k))
    return Part(names, [], every[:], [[i] for i in every], 1 << k, relations=k, minimal=every[:], maximal=every[:],
                probe=None)


def grid(prefix, rows, cols, kind="identity"):
    names = [f"{prefix}g{r:02d}x{c:02d}" for r in range(rows) for c in range(cols)]
    covers = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                covers.append((r * cols + c, (r + 1) * cols + c))
            if c + 1 < cols:
                covers.append((r * cols + c, r * cols + c + 1))
    n = rows * cols
    # Column 0 below row 0 has a single lower cover, and it sorts late.
    probe = ((rows - 2) * cols, (rows - 1) * cols) if rows >= 2 else ((cols - 2, cols - 1) if cols >= 2 else None)
    common = dict(relations=comb(rows + 1, 2) * comb(cols + 1, 2), minimal=[0], maximal=[n - 1], probe=probe)
    if kind == "identity":
        return Part(names, covers, list(range(n)), [[i] for i in range(n)], comb(rows + cols, rows), **common)
    if kind == "collapse":
        return Part(names, covers, [0] * n, [list(range(n))], 2, **common)
    if kind == "rowproj":
        classes = [list(range(r * cols, (r + 1) * cols)) for r in range(rows)]
        return Part(names, covers, [(i // cols) * cols for i in range(n)], classes, rows + 1, **common)
    raise ValueError(f"grid map {kind!r}")


def layered(prefix, layers, width, kind="identity"):
    """Ordinal sum of ``layers`` antichains of ``width``: a layered DAG."""
    names = [f"{prefix}l{lv:02d}w{k}" for lv in range(layers) for k in range(width)]
    covers = [(lv * width + a, (lv + 1) * width + b) for lv in range(layers - 1) for a in range(width) for b in range(width)]
    n = layers * width
    common = dict(relations=n + comb(layers, 2) * width * width, minimal=list(range(width)),
                  maximal=list(range(n - width, n)),
                  probe=((layers - 2) * width, (layers - 1) * width) if layers >= 2 else None)
    if kind == "identity":
        return Part(names, covers, list(range(n)), [[i] for i in range(n)], layers * ((1 << width) - 1) + 1, **common)
    if kind == "collapse":
        return Part(names, covers, [0] * n, [list(range(n))], 2, **common)
    raise ValueError(f"layered map {kind!r}")


def _shifted(part, off):
    return (
        [(a + off, b + off) for a, b in part.covers],
        [j + off for j in part.image],
        [[i + off for i in c] for c in part.classes],
    )


def union(*parts):
    """Disjoint union, each part mapped into itself."""
    names, covers, image, classes = [], [], [], []
    count, relations, minimal, maximal, probe = 1, 0, [], [], None
    for part in parts:
        off = len(names)
        c, im, cl = _shifted(part, off)
        names += part.names
        covers += c
        image += im
        classes += cl
        count *= part.count
        relations += part.relations
        minimal += [i + off for i in part.minimal]
        maximal += [i + off for i in part.maximal]
        if part.probe is not None:
            probe = (part.probe[0] + off, part.probe[1] + off)
    return Part(names, covers, image, classes, count, relations, minimal, maximal, probe)


def osum(lo, hi):
    """Ordinal sum: every element of ``lo`` below every element of ``hi``."""
    off = len(lo.names)
    c, im, cl = _shifted(hi, off)
    covers = lo.covers + c + [(a, b + off) for a in lo.maximal for b in hi.minimal]
    probe = (hi.probe[0] + off, hi.probe[1] + off) if hi.probe is not None else lo.probe
    return Part(
        lo.names + hi.names, covers, lo.image + im, lo.classes + cl, lo.count + hi.count - 1,
        lo.relations + hi.relations + len(lo.names) * len(hi.names), lo.minimal[:], [i + off for i in hi.maximal],
        probe,
    )


def swap(copy_a, copy_b):
    """Two isomorphic copies under identity, exchanged by the map."""
    n = len(copy_a.names)
    part = union(copy_a, copy_b)
    part.image = [i + n for i in range(n)] + list(range(n))
    part.classes = [[i, i + n] for i in range(n)]
    part.count = copy_a.count
    return part


# ---------------------------------------------------------------------------
# Requests


@dataclass
class Request:
    """One CLI call: argv without ``-o``, the files it reads, the expected answer."""

    label: str
    argv: list
    files: dict  # file name -> JSON object
    expect: str  # "quotient", "list", "count" or "reject"
    part: Part | None = None
    count: int = 0
    error: str = ""
    # Counters the traced run reports; all of them are properties of the input.
    elements: int = 0
    gen_edges: int = 0
    relations: int = 0
    lattice_elements: int = 0


def _poset_obj(part, rng, extra_edges=()):
    elements = part.names[:]
    rng.shuffle(elements)
    leq = [[part.names[a], part.names[b]] for a, b in part.covers] + [list(e) for e in extra_edges]
    rng.shuffle(leq)
    return {"elements": elements, "leq": leq}


def _map_obj(names, image, rng):
    keys = list(range(len(names)))
    rng.shuffle(keys)
    return {"map": {names[i]: names[image[i]] for i in keys}}


def poset_request(label, part, mode, rng, invalid=None):
    """A ``fixpoints --poset --map`` request; ``invalid`` breaks it on purpose.

    ``invalid="monotone"`` swaps the images of the probe pair under the
    identity map; ``invalid="cycle"`` adds a reverse edge, making a preorder.
    """
    n = len(part.names)
    image = part.image
    extra = []
    if invalid == "monotone":
        a, b = part.probe
        image = list(range(n))
        image[a], image[b] = b, a
    elif invalid == "cycle":
        extra = [(part.names[n - 1], part.names[n - 2]), (part.names[n - 2], part.names[n - 1])]
    elif invalid is not None:
        raise ValueError(invalid)
    if mode == "count" and invalid is None and part.count > MAX_COUNT:
        raise ValueError(f"{label}: {part.count} fix-points exceed the count bound {MAX_COUNT}")
    if mode == "list" and invalid is None and part.count > MAX_LIST:
        raise ValueError(f"{label}: {part.count} fix-points exceed the list bound {MAX_LIST}")
    files = {"P.json": _poset_obj(part, rng, extra), "M.json": _map_obj(part.names, image, rng)}
    argv = ["fixpoints", "--poset", "P.json", "--map", "M.json", f"--{mode}"]
    expect = mode if invalid is None else "reject"
    error = {"monotone": "NotMonotone", "cycle": "AntisymmetryViolation"}.get(invalid, "")
    return Request(label, argv, files, expect, part=part, count=part.count, error=error,
                   elements=n, gen_edges=len(part.covers) + len(extra), relations=part.relations)


def _ideal_masks(part):
    """Every order ideal of ``part`` as a bitmask, by growing minimal elements."""
    n = len(part.names)
    lower = [0] * n
    for a, b in part.covers:
        lower[b] |= 1 << a
    seen = {0}
    frontier = [0]
    while frontier:
        grown = []
        for m in frontier:
            for x in range(n):
                if not m >> x & 1 and lower[x] & ~m == 0 and (m | 1 << x) not in seen:
                    seen.add(m | 1 << x)
                    grown.append(m | 1 << x)
        frontier = grown
    return sorted(seen, key=lambda m: (m.bit_count(), m))


def _closed_relations(elements, leq):
    """Pairs x <= y, reflexive ones included, of the order generated by ``leq``."""
    index = {x: i for i, x in enumerate(elements)}
    edges = [(index[a], index[b]) for a, b in leq]
    up = [1 << i for i in range(len(elements))]
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if up[b] & ~up[a]:
                up[a] |= up[b]
                changed = True
    return sum(m.bit_count() for m in up)


def lattice_request(label, part, rng, invalid=None):
    """A ``fixpoints --lattice --hom --count`` request on the ideal lattice of ``part``.

    The hom sends an ideal to its preimage under the part's map.
    ``invalid="m3"`` / ``"n5"`` puts M3 or N5 above the top, so the order is a
    lattice but not distributive; ``invalid="hom"`` breaks the join law at a
    join-reducible element.
    """
    tag = _tag(rng)
    masks = _ideal_masks(part)
    name = {m: f"{tag}l{k:03d}" for k, m in enumerate(masks)}
    n = len(part.names)
    leq = [[name[m], name[m | 1 << x]] for m in masks for x in range(n) if not m >> x & 1 and (m | 1 << x) in name]
    hom = {}
    for m in masks:
        pre = 0
        for y in range(n):
            if m >> part.image[y] & 1:
                pre |= 1 << y
        hom[name[m]] = name[pre]
    elements = [name[m] for m in masks]
    top = name[masks[-1]]
    error = ""
    if invalid in ("m3", "n5"):
        a, b, c, t = (f"{tag}x{j}" for j in range(4))
        elements += [a, b, c, t]
        if invalid == "m3":
            leq += [[top, a], [top, b], [top, c], [a, t], [b, t], [c, t]]
        else:
            leq += [[top, a], [a, b], [b, t], [top, c], [c, t]]
        hom = {x: x for x in elements}
        error = "NotDistributive"
    elif invalid == "hom":
        full = masks[-1]
        lower = [0] * n
        for lo, hi in part.covers:
            lower[hi] |= 1 << lo
        # A join-reducible ideal has two or more maximal members.
        reducible = [m for m in masks if m != full and sum(1 for x in range(n) if m >> x & 1 and not any(
            m >> y & 1 and lower[y] >> x & 1 for y in range(n))) >= 2]
        x = name[reducible[-1]]
        hom[x] = name[full] if hom[x] == name[0] else name[0]
        error = "NotHom"
    elif invalid is not None:
        raise ValueError(invalid)
    relations = _closed_relations(elements, leq)
    rng.shuffle(elements)
    rng.shuffle(leq)
    keys = list(hom)
    rng.shuffle(keys)
    files = {"L.json": {"elements": elements, "leq": leq}, "H.json": {"map": {k: hom[k] for k in keys}}}
    argv = ["fixpoints", "--lattice", "L.json", "--hom", "H.json", "--count"]
    return Request(label, argv, files, "count" if invalid is None else "reject", part=part, count=part.count,
                   error=error, elements=len(elements), gen_edges=len(leq), relations=relations,
                   lattice_elements=len(elements))


# ---------------------------------------------------------------------------
# Workloads


def _tag(rng):
    return "".join(rng.choice("bcdfghjkmnpqrstvwxz") for _ in range(2))


def _pick(rng, *options):
    return options[rng.randrange(len(options))]


def _sz(value, scale):
    return max(2, round(value * scale))


# Every pool has 25 valid slots and 3 invalid ones.  With an odd number of
# slots the median, and with 25 also the 90th percentile, fall inside one
# slot's samples rather than between two slots of different cost, so they do
# not jump between runs.


def construct_pool(rng, s):
    """Construction and serialisation dominate; each answer has few fix-points."""
    t = _tag(rng)
    a, b, c = t + "0", t + "1", t + "2"

    def n(v):  # a chain length or layer count, jittered by about 1%
        return _sz(v + rng.randint(-(v // 100), v // 100), s)

    def g(prefix, rows, cols, kind="identity"):  # grids scale by area; the seed picks the orientation
        rows, cols = _sz(rows, s ** 0.5), _sz(cols, s ** 0.5)
        return grid(prefix, *_pick(rng, (rows, cols), (cols, rows)), kind)

    def either():
        return _pick(rng, "quotient", "list")

    length, short, square = n(145), n(120), _sz(11, s ** 0.5)
    slots = [
        ("chain-identity", chain(a, n(240)), "quotient", None),
        ("chain-shift", chain(a, n(290), "shift"), "list", None),
        ("chain-block", chain(a, n(290), "block", block=12), "list", None),
        ("chain-collapse", chain(a, n(270), "collapse"), "quotient", None),
        ("grid-identity", g(a, 17, 18), "quotient", None),
        ("grid-rowproj", g(a, 18, 19, "rowproj"), "list", None),
        ("grid-rowproj-q", g(a, 12, 24, "rowproj"), "quotient", None),
        ("grid-collapse", g(a, 18, 18, "collapse"), "quotient", None),
        ("layered-identity", layered(a, n(46), 4), "quotient", None),
        ("layered-identity-6", layered(a, n(30), 6), "quotient", None),
        ("layered-collapse", layered(a, n(50), 4, "collapse"), "list", None),
        ("layered-wide", layered(a, n(21), 8, "collapse"), "quotient", None),
        ("chain-swap", swap(chain(a, length), chain(b, length)), "list", None),
        ("chain-swap-q", swap(chain(a, short), chain(b, short)), "quotient", None),
        ("grid-swap", swap(grid(a, square, square), grid(b, square, square)), "quotient", None),
        ("union-chain-grid", union(chain(a, n(145)), g(b, 13, 13)), "quotient", None),
        ("union-layered-chain", union(layered(a, n(25), 4, "collapse"), chain(b, n(155), "collapse")), "list", None),
        ("union-grid-grid", union(g(a, 10, 11, "rowproj"), g(b, 10, 11, "collapse")), "quotient", None),
        ("union-chain-chain", union(chain(a, n(150), "collapse"), chain(b, n(150), "shift")), "list", None),
        ("union-three", union(chain(a, n(100)), g(b, 10, 10), layered(c, n(15), 4)), "quotient", None),
        ("osum-chain-grid", osum(chain(a, n(125)), g(b, 12, 13)), "quotient", None),
        ("osum-grid-layered", osum(g(a, 12, 13, "rowproj"), layered(b, n(25), 4, "collapse")), "list", None),
        ("osum-chain-chain", osum(chain(a, n(145), "shift"), chain(b, n(145), "block", block=10)), "list", None),
        ("osum-layered-chain", osum(layered(a, n(20), 4, "collapse"), chain(b, n(150), "block", block=10)),
         "list", None),
        ("osum-grid-grid", osum(g(a, 12, 12), g(b, 12, 12, "collapse")), "quotient", None),
        ("bad-chain", chain(a, n(240)), either(), "monotone"),
        ("bad-grid", grid(a, _sz(17, s ** 0.5), _sz(17, s ** 0.5)), either(), "monotone"),
        ("bad-osum", osum(chain(a, n(125)), layered(b, n(25), 4)), either(), "monotone"),
    ]
    return [poset_request(label, part, mode, rng, invalid) for label, part, mode, invalid in slots]


def _enumeration_pool(rng, s, mode):
    """Posets with about 10^3 to 10^4 ideals, shared by the count and list workloads."""
    t = _tag(rng)
    a, b, c = t + "0", t + "1", t + "2"

    def k(v):
        return _sz(v, s)

    def grid_either_way(rows, cols):
        return _pick(rng, grid(a, k(rows), k(cols)), grid(a, k(cols), k(rows)))

    slots = [
        ("antichain-11", antichain(a, k(11))),
        ("antichain-12", antichain(a, k(12))),
        ("antichain-13", antichain(a, k(13))),
        ("antichain-swap", swap(antichain(a, k(12)), antichain(b, k(12)))),
        ("antichain-swap-11", swap(antichain(a, k(11)), antichain(b, k(11)))),
        ("grid-6x6", grid(a, k(6), k(6))),
        ("grid-6x7", grid_either_way(6, 7)),
        ("grid-5x8", grid_either_way(5, 8)),
        ("grid-5x7", grid_either_way(5, 7)),
        ("grid-4x10", grid_either_way(4, 10)),
        ("grid-3x15", grid_either_way(3, 15)),
        ("grid-7x7", grid(a, k(7), k(7))),
        ("grid-swap", swap(grid(a, k(6), k(6)), grid(b, k(6), k(6)))),
        ("union-anti-grid", union(antichain(a, k(5)), grid(b, k(4), k(4)))),
        ("union-chain-anti", union(chain(a, k(_pick(rng, 30, 31))), antichain(b, k(7)))),
        ("union-chains", union(chain(a, k(10)), chain(b, k(10)), chain(c, k(10)))),
        ("union-anti-chains", union(antichain(a, k(4)), chain(b, k(20)), chain(c, k(20)))),
        ("union-grids-chain", union(grid(a, k(3), k(3)), grid(b, k(3), k(4)), chain(c, k(5)))),
        ("union-grid-collapse", union(grid(a, k(6), k(6)), grid(b, k(5), k(5), "collapse"))),
        ("osum-anti-grid", osum(antichain(a, k(11)), grid(b, k(5), k(5)))),
        ("osum-grid-anti", osum(grid(a, k(5), k(6)), antichain(b, k(11)))),
        ("osum-anti-anti", osum(antichain(a, k(10)), antichain(b, k(10)))),
        ("osum-grid-grid", osum(grid(a, k(6), k(6)), grid(b, k(4), k(7), "rowproj"))),
        ("layered-8", layered(a, k(_pick(rng, 5, 6)), k(8))),
        ("layered-7", layered(a, k(8), k(7))),
    ]
    out = [poset_request(label, part, mode, rng) for label, part in slots]
    # The posets of the invalid requests are larger than the valid ones, so
    # that the time to the verdict is not just argument parsing.
    out.append(poset_request("bad-grid", grid(a, k(12), k(12)), mode, rng, "monotone"))
    out.append(poset_request("bad-osum", osum(antichain(a, k(11)), grid(b, k(10), k(10))), mode, rng, "monotone"))
    out.append(poset_request("bad-antichain", antichain(a, k(12)), mode, rng, "cycle"))
    return out


def count_pool(rng, s):
    """Ideal enumeration inside ``--count`` does nearly all the work."""
    return _enumeration_pool(rng, s, "count")


def list_pool(rng, s):
    """The same posets listed: work bound by output size."""
    return _enumeration_pool(rng, s, "list")


def explicit_pool(rng, s):
    """Explicit distributive lattices of 36 to 84 elements with induced homs."""
    t = _tag(rng)
    a, b, c, d = t + "0", t + "1", t + "2", t + "3"

    def k(v):
        return _sz(v, s)

    slots = [
        ("grid-3x5", grid(a, k(3), k(5))),
        ("grid-4x4", grid(a, k(4), k(4))),
        ("grid-rowproj", grid(a, k(4), k(4), "rowproj")),
        ("grid-3x5-rowproj", grid(a, k(3), k(5), "rowproj")),
        ("grid-3x6-rowproj", grid(a, k(3), k(6), "rowproj")),
        ("grid-3x5-collapse", grid(a, k(3), k(5), "collapse")),
        ("grid-2x7", _pick(rng, grid(a, k(2), k(7)), grid(a, k(7), k(2)))),
        ("grid-2x9", _pick(rng, grid(a, k(2), k(9)), grid(a, k(9), k(2)))),
        ("boolean-6", antichain(a, k(6))),
        ("boolean-swap", swap(antichain(a, k(3)), antichain(b, k(3)))),
        ("chains-swap", swap(chain(a, k(7)), chain(b, k(7)))),
        ("chains-collapse", union(chain(a, k(7), "collapse"), chain(b, k(7), "shift"))),
        ("chain-anti", union(chain(a, k(7)), antichain(b, k(3)))),
        ("chain-grid", union(chain(a, k(2), "shift"), grid(b, k(3), k(3)))),
        ("chain-grid-2x3", union(chain(a, k(4)), grid(b, k(2), k(3)))),
        ("union-chains", union(chain(a, k(3)), chain(b, k(3)), chain(c, k(3), "block", block=k(2)))),
        ("union-four-chains", union(chain(a, k(2)), chain(b, k(2), "shift"), chain(c, k(2), "collapse"), chain(d, k(2)))),
        ("union-anti-chain", union(antichain(a, k(4)), chain(b, k(3), "block", block=k(2)))),
        ("osum-anti-chain", osum(antichain(a, k(5)), chain(b, k(_pick(rng, 22, 24)), "block", block=k(4)))),
        ("osum-grid-grid", osum(grid(a, k(3), k(4)), grid(b, k(3), k(3), "rowproj"))),
        ("osum-boolean", osum(antichain(a, k(5)), antichain(b, k(5)))),
        ("osum-chain-grid", osum(chain(a, k(10), "block", block=k(5)), grid(b, k(3), k(4)))),
        ("layered-3", layered(a, k(_pick(rng, 8, 9)), k(3), "collapse")),
        ("layered-3-identity", layered(a, k(9), k(3))),
        ("layered-swap", swap(layered(a, k(2), k(2)), layered(b, k(2), k(2)))),
    ]
    out = [lattice_request(label, part, rng) for label, part in slots]
    out.append(lattice_request("bad-m3", grid(a, k(3), k(5)), rng, "m3"))
    out.append(lattice_request("bad-n5", grid(a, k(4), k(4)), rng, "n5"))
    out.append(lattice_request("bad-hom", grid(a, k(3), k(5)), rng, "hom"))
    return out


WORKLOADS = {
    "construct": construct_pool,
    "count": count_pool,
    "list": list_pool,
    "explicit": explicit_pool,
}


def make_pool(workload, seed, scale=1.0):
    """The seeded request pool of one workload; the same seed gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, scale)

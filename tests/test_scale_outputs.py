"""CLI outputs at scale, byte for byte.

Each case writes a deterministic input into ``tmp_path`` and runs
``cli.main`` in process.  The expected stdout comes from a closed form
where one exists: n + 1 ideals for an n-chain, one line per element from
bottom to top for a chain lattice, 2^k unions for k swapped pairs,
C(r + c, r) ideals for an r x c grid.  Where none is written here, the
digest pinned is cross-checked by an independent route.  A change to
any expected stdout here is a change to what the CLI prints.  Stdout is
hashed as it is written, so no case keeps a listing of tens of megabytes
in memory.  No time is asserted.
"""

import contextlib
import hashlib
import io
import json
import sys
from itertools import combinations
from math import comb

import pytest

from dualfix.cli import _dumps, main

CHAIN = 4096


class _Digest:
    """A text stream that keeps only the sha256 and the line count of
    what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.lines = 0

    def write(self, text):
        self.sha.update(text.encode())
        self.lines += text.count("\n")
        return len(text)

    def flush(self):
        pass


def _cli(*argv):
    out, err = _Digest(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out, err.getvalue()


def _digest(lines):
    expected = _Digest()
    for line in lines:
        expected.write(line)
    return expected.sha.hexdigest(), expected.lines


def _chain(way, n):
    """Identifiers c0000... of an n-chain, listed bottom to top, and its
    covers: named ascending along the order, or descending."""
    ids = [f"c{i:04d}" for i in range(n)]
    bottom_up = ids if way == "ascending" else ids[::-1]
    return ids, bottom_up, list(zip(bottom_up, bottom_up[1:]))


def _identity_quotient(names, covers):
    """stdout of ``--quotient`` for the identity: one class per point,
    ordered like the points."""
    return _dumps({
        "classes": {f"[{x}]": [x] for x in names},
        "leq": sorted([f"[{a}]", f"[{b}]"] for a, b in covers),
    }) + "\n"


def _chain_ideal_lines(bottom_up):
    """stdout of the poset-side ``--list`` on a chain: line i holds the
    i lowest points, in identifier order.  The i lowest points are a
    prefix of the identifiers when they ascend along the order, and a
    suffix when they descend; each line is sliced out of the whole
    joined list."""
    names = sorted(bottom_up)
    joined = ",".join(map(json.dumps, names))
    ends = [0]
    for x in names:
        ends.append(ends[-1] + len(x) + 3)  # two quotes and a comma
    n = len(names)
    yield "[]\n"
    for i in range(1, n + 1):
        if bottom_up[0] == names[0]:
            yield "[" + joined[:ends[i] - 1] + "]\n"
        else:
            yield "[" + joined[ends[n - i]:] + "]\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("scale")

    def write(name, obj):
        path = root / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


@pytest.mark.parametrize("way", ["ascending", "descending"])
class TestChains:
    def test_poset_chain(self, inputs, way):
        # a chain of CHAIN - 1 points has CHAIN ideals
        ids, bottom_up, covers = _chain(way, CHAIN - 1)
        args = [
            "--poset", inputs(f"chain-{way}.json", {"elements": ids, "leq": covers}),
            "--map", inputs(f"identity-{way}.json", {"map": {x: x for x in ids}}),
        ]
        code, out, err = _cli("fixpoints", "--list", *args)
        assert (code, err, out.lines) == (0, "", CHAIN)
        assert out.sha.hexdigest() == _digest(_chain_ideal_lines(bottom_up))[0]
        code, out, err = _cli("fixpoints", "--count", *args)
        assert (code, err, out.sha.hexdigest()) == (0, "", _digest([f"{CHAIN}\n"])[0])
        code, out, err = _cli("fixpoints", "--quotient", *args)
        assert (code, err) == (0, "")
        assert out.sha.hexdigest() == _digest([_identity_quotient(ids, covers)])[0]

    def test_lattice_chain(self, inputs, way):
        # every element but the bottom is join-irreducible, and each is the
        # ideal of one fixed element, listed from bottom to top
        ids, bottom_up, covers = _chain(way, CHAIN)
        args = [
            "--lattice", inputs(f"lattice-{way}.json", {"elements": ids, "leq": covers}),
            "--hom", inputs(f"hom-{way}.json", {"map": {x: x for x in ids}}),
        ]
        code, out, err = _cli("fixpoints", "--list", *args)
        assert (code, err, out.lines) == (0, "", CHAIN)
        assert out.sha.hexdigest() == _digest(json.dumps(x) + "\n" for x in bottom_up)[0]
        code, out, err = _cli("fixpoints", "--count", *args)
        assert (code, err, out.sha.hexdigest()) == (0, "", _digest([f"{CHAIN}\n"])[0])
        code, out, err = _cli("fixpoints", "--quotient", *args)
        assert (code, err) == (0, "")
        assert out.sha.hexdigest() == _digest([_identity_quotient(sorted(bottom_up[1:]), covers[1:])])[0]


def test_boolean_lattice_with_its_reversal(inputs):
    # dualmap lifts the reversal of a 12-antichain to a hom on its
    # 4096-element Boolean lattice; the fix-points are the 2^6 unions of
    # the reversal's six orbits.  The listing's order is pinned by digest,
    # its content by the orbits.
    ids = [f"a{i:02d}" for i in range(12)]
    args = [
        "--poset", inputs("antichain-12.json", {"elements": ids, "leq": []}),
        "--map", inputs("reversal-12.json", {"map": dict(zip(ids, ids[::-1]))}),
    ]
    lifted = io.StringIO()
    with contextlib.redirect_stdout(lifted):
        assert main(["dualmap", *args]) == 0
    obj = json.loads(lifted.getvalue())
    args = ["--lattice", inputs("boolean-12.json", obj["lattice"]), "--hom", inputs("boolean-12-hom.json", obj["hom"])]
    code, out, err = _cli("fixpoints", "--count", *args)
    assert (code, err, out.sha.hexdigest()) == (0, "", _digest(["64\n"])[0])
    listed = io.StringIO()
    with contextlib.redirect_stdout(listed):
        assert main(["fixpoints", "--list", *args]) == 0
    text = listed.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == "40635c4b7eb409e61bffc10e2493a301cf1e8a9b6121da71a3b7fa9b53b24ba6"
    orbits = [(ids[i], ids[11 - i]) for i in range(6)]
    unions = {
        "{" + ",".join(sorted(x for c in chosen for x in c)) + "}"
        for k in range(7)
        for chosen in combinations(orbits, k)
    }
    assert sorted(json.loads(line) for line in text.splitlines()) == sorted(unions)


def test_swapped_pairs_on_an_antichain(inputs):
    # k classes of two points each and no order between them: 2^k
    # fix-points, listed by size and then lexicographically by class
    k = 10
    ids = [f"a{i:03d}" for i in range(2 * k)]
    swap = {x: ids[i ^ 1] for i, x in enumerate(ids)}
    args = [
        "--poset", inputs("antichain-20.json", {"elements": ids, "leq": []}),
        "--map", inputs("swap-20.json", {"map": swap}),
    ]
    pairs = [ids[2 * c: 2 * c + 2] for c in range(k)]
    code, out, err = _cli("fixpoints", "--list", *args)
    lines = (
        json.dumps([x for c in chosen for x in pairs[c]], separators=(",", ":")) + "\n"
        for size in range(k + 1)
        for chosen in combinations(range(k), size)
    )
    assert (code, err, out.lines) == (0, "", 2 ** k)
    assert out.sha.hexdigest() == _digest(lines)[0]
    code, out, err = _cli("fixpoints", "--count", *args)
    assert (code, err, out.sha.hexdigest()) == (0, "", _digest([f"{2 ** k}\n"])[0])
    code, out, err = _cli("fixpoints", "--quotient", *args)
    expected = _dumps({"classes": {f"[{p[0]}]": p for p in pairs}, "leq": []}) + "\n"
    assert (code, err, out.sha.hexdigest()) == (0, "", _digest([expected])[0])


@pytest.mark.parametrize("naming", ["row-major", "column-major"])
def test_grid_with_the_identity(inputs, naming):
    # an r x c grid has C(r + c, r) ideals, the monotone lattice paths
    # across it, and the identity quotient is the grid itself; the
    # identifiers run along rows or down columns, so the count walks a
    # frontier of one width or the other
    rows, cols = 10, 14

    def name(r, c):
        return f"g{r:02d}{c:02d}" if naming == "row-major" else f"g{c:02d}{r:02d}"

    ids = [name(r, c) for r in range(rows) for c in range(cols)]
    covers = [(name(r, c), name(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    covers += [(name(r, c), name(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    args = [
        "--poset", inputs(f"grid-{naming}.json", {"elements": ids, "leq": covers}),
        "--map", inputs(f"grid-identity-{naming}.json", {"map": {x: x for x in ids}}),
    ]
    assert comb(rows + cols, rows) == 1961256
    code, out, err = _cli("fixpoints", "--count", *args)
    assert (code, err, out.sha.hexdigest()) == (0, "", _digest(["1961256\n"])[0])
    code, out, err = _cli("fixpoints", "--quotient", *args)
    assert (code, err) == (0, "")
    assert out.sha.hexdigest() == _digest([_identity_quotient(sorted(ids), covers)])[0]


def test_mk_reject(inputs):
    # bottom, 1,000 pairwise incomparable atoms and top form a lattice
    # that is not distributive: any three atoms fail to distribute, and
    # the witness is the three least
    atoms = [f"a{i:04d}" for i in range(1000)]
    ids = ["bottom", *atoms, "top"]
    leq = [("bottom", a) for a in atoms] + [(a, "top") for a in atoms]
    args = [
        "--lattice", inputs("mk-1002.json", {"elements": ids, "leq": leq}),
        "--hom", inputs("mk-1002-identity.json", {"map": {x: x for x in ids}}),
    ]
    verdict = {
        "error": "NotDistributive",
        "message": "meet does not distribute over join at ('a0000', 'a0001', 'a0002')",
        "valid": False,
        "witness": ["a0000", "a0001", "a0002"],
    }
    code, out, err = _cli("fixpoints", "--count", *args)
    assert (code, err, out.sha.hexdigest()) == (2, _dumps(verdict) + "\n", _digest([])[0])


def test_count_past_the_digit_limit(inputs):
    # 2^15000 has 4,516 digits, past the 4,300 that Python 3.11+ converts
    # from int to str by default; the count is printed in full, and the
    # interpreter's limit is left as it was found, here a non-default one.
    ids = [f"a{i:05d}" for i in range(15000)]
    args = [
        "--poset", inputs("antichain-15000.json", {"elements": ids, "leq": []}),
        "--map", inputs("identity-15000.json", {"map": {x: x for x in ids}}),
    ]
    limits = getattr(sys, "get_int_max_str_digits", None)
    before = None if limits is None else limits()
    if before is not None:
        sys.set_int_max_str_digits(4400)
    try:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["fixpoints", "--count", *args])
        if before is not None:
            assert sys.get_int_max_str_digits() == 4400
            sys.set_int_max_str_digits(0)
        digits = str(1 << 15000)
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)
    assert len(digits) == 4516
    assert (code, err.getvalue(), out.getvalue()) == (0, "", digits + "\n")

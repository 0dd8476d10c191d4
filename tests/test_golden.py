"""The CLI's exit codes, stdout and stderr on a fixed corpus, byte for byte.

``golden_cli.json`` holds about 300 invocations, each with its input files,
argv and recorded result: ``fixpoints`` in every mode on both sides,
``compare``, ``dot``, ``dual``, ``dualmap``, ``validate``, malformed
documents and usage errors.  The test replays each one in process, from a
directory holding its input files, and compares the result with the record.
A change that must keep the CLI's output byte-identical passes this test
unchanged; a change that alters output on purpose re-records the file::

    PYTHONPATH=src python tests/test_golden.py --record

Inputs come from :func:`build_corpus`, seeded, so a re-record keeps the
same inputs and shows only the outputs that changed.  Usage errors are
limited to messages that the package writes itself, not argparse's, whose
wording differs between Python versions.
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

M3 = {
    "elements": ["0", "1", "a", "b", "c"],
    "leq": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
}
N5 = {"elements": ["0", "1", "a", "b", "c"], "leq": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"], ["c", "1"]]}


def _random_poset_doc(rng, n, names):
    ids = names[:n]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    p = rng.choice([0.2, 0.35, 0.5])
    leq = [[shuffled[i], shuffled[j]] for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    if leq and rng.random() < 0.3:
        leq.append(list(rng.choice(leq)))  # a duplicate pair
    if ids and rng.random() < 0.3:
        x = rng.choice(ids)
        leq.append([x, x])  # a reflexive pair
    return {"elements": ids, "leq": leq}


def build_corpus():
    """The invocations, as {"name", "files", "argv"} with file contents as text."""
    from dualfix import build_poset, hom_from_dual
    from dualfix.jsonio import map_to_obj, poset_to_obj
    from helpers import random_monotone_between

    rng = random.Random(20261018)
    cases = []

    def add(name, files, *argv):
        cases.append({"name": name, "files": {k: json.dumps(v) if not isinstance(v, str) else v
                                               for k, v in files.items()}, "argv": list(argv)})

    letters = list("abcdefgh")
    padded = [f"e{k:02d}" for k in range(8)]
    for k in range(7):
        names = letters if k % 2 else padded
        doc = _random_poset_doc(rng, 1 + k if k < 6 else 0, names)
        poset = build_poset(doc["elements"], [tuple(p) for p in doc["leq"]])
        ids = list(poset.elements)
        tables = {"identity": {x: x for x in ids}, "monotone": random_monotone_between(rng, poset, poset).table}
        if ids:
            tables["constant"] = {x: ids[0] for x in ids}
            tables["arbitrary"] = {x: rng.choice(ids) for x in ids}
        files = {"p.json": doc}
        add(f"p{k}-validate", files, "validate", "poset", "p.json")
        add(f"p{k}-dot", files, "dot", "poset", "p.json")
        if len(ids) <= 4:
            add(f"p{k}-dual", files, "dual", "poset", "p.json")
        for kind, table in tables.items():
            files = {"p.json": doc, "m.json": {"map": table}}
            tag = f"p{k}-{kind}"
            for mode in ("--list", "--count", "--quotient"):
                add(f"{tag}-fixpoints{mode}", files, "fixpoints", "--poset", "p.json", "--map", "m.json", mode)
            if kind in ("monotone", "arbitrary"):
                add(f"{tag}-compare", files, "compare", "--poset", "p.json", "--map", "m.json",
                    "--artifact", "artifact.json")
                add(f"{tag}-dot-quotient", files, "dot", "quotient", "m.json", "--poset", "p.json")
                add(f"{tag}-dot-map", files, "dot", "map", "m.json", "--poset", "p.json")
                add(f"{tag}-dualmap", files, "dualmap", "--poset", "p.json", "--map", "m.json")

    # the explicit side: lattices and homs induced by monotone maps, under
    # opaque, shuffled element names
    for k in range(5):
        doc = _random_poset_doc(rng, 1 + k, letters)
        poset = build_poset(doc["elements"], [tuple(p) for p in doc["leq"]])
        hom = hom_from_dual(random_monotone_between(rng, poset, poset))
        order = hom.domain.order
        fresh = [f"L{i:02d}" for i in range(len(order))]
        rng.shuffle(fresh)
        rename = dict(zip(order.elements, fresh))
        lat = poset_to_obj(order)
        lat = {"elements": sorted(rename[x] for x in lat["elements"]),
               "leq": [[rename[x], rename[y]] for x, y in lat["leq"]]}
        table = {rename[x]: rename[y] for x, y in hom.table.items()}
        files = {"l.json": lat, "h.json": map_to_obj(table)}
        tag = f"l{k}"
        add(f"{tag}-validate", files, "validate", "lattice", "l.json")
        add(f"{tag}-validate-hom", files, "validate", "hom", "h.json", "--lattice", "l.json")
        add(f"{tag}-dual", files, "dual", "lattice", "l.json")
        add(f"{tag}-dot", files, "dot", "lattice", "l.json")
        add(f"{tag}-dualmap", files, "dualmap", "--lattice", "l.json", "--hom", "h.json")
        for mode in ("--list", "--count", "--quotient"):
            add(f"{tag}-fixpoints{mode}", files, "fixpoints", "--lattice", "l.json", "--hom", "h.json", mode)
        broken = dict(table)
        broken[lat["elements"][0]], broken[lat["elements"][-1]] = table[lat["elements"][-1]], table[lat["elements"][0]]
        files = {"l.json": lat, "h.json": {"map": broken}}
        add(f"{tag}-broken-hom", files, "fixpoints", "--lattice", "l.json", "--hom", "h.json", "--count")

    # rejected and malformed inputs
    chain = {"elements": ["p", "q"], "leq": [["p", "q"]]}
    collapse = {"map": {"p": "q", "q": "q"}}
    for name, lat in (("m3", M3), ("n5", N5)):
        add(f"{name}-validate", {"l.json": lat}, "validate", "lattice", "l.json")
        add(f"{name}-fixpoints", {"l.json": lat, "h.json": {"map": {x: x for x in lat["elements"]}}},
            "fixpoints", "--lattice", "l.json", "--hom", "h.json", "--count")
    bad_posets = {
        "cycle": {"elements": ["x", "y", "z"], "leq": [["x", "y"], ["y", "z"], ["z", "x"]]},
        "two-cycles": {"elements": ["a", "b", "c", "d"], "leq": [["c", "d"], ["d", "c"], ["a", "b"], ["b", "a"]]},
        "duplicate": {"elements": ["x", "x"], "leq": []},
        "unknown": {"elements": ["x"], "leq": [["x", "y"]]},
        "elements-not-list": {"elements": "xy"},
        "leq-not-pairs": {"elements": ["x"], "leq": [["x"]]},
        "not-object": ["x"],
        "malformed": "{\"elements\": [",
        "empty-file": "",
    }
    for name, doc in bad_posets.items():
        add(f"bad-{name}", {"p.json": doc}, "validate", "poset", "p.json")
        add(f"bad-{name}-fixpoints", {"p.json": doc, "m.json": {"map": {}}},
            "fixpoints", "--poset", "p.json", "--map", "m.json", "--count")
    bad_maps = {
        "partial": {"map": {"p": "q"}},
        "foreign-key": {"map": {"p": "q", "q": "q", "r": "p"}},
        "unknown-image": {"map": {"p": "q", "q": "r"}},
        "reversal": {"map": {"p": "q", "q": "p"}},
        "not-strings": {"map": {"p": 1, "q": "q"}},
        "no-map": {"table": {}},
    }
    for name, doc in bad_maps.items():
        for argv in (["fixpoints", "--poset", "p.json", "--map", "m.json"],
                     ["validate", "map", "m.json", "--poset", "p.json"]):
            add(f"badmap-{name}-{argv[0]}", {"p.json": chain, "m.json": doc}, *argv)
    files = {"p.json": chain, "m.json": collapse, "l.json": M3}
    add("missing-file", files, "fixpoints", "--poset", "missing.json", "--map", "m.json")
    add("poset-without-map", files, "fixpoints", "--poset", "p.json")
    add("both-sides", files, "fixpoints", "--poset", "p.json", "--map", "m.json", "--lattice", "l.json")
    add("neither-side", files, "dualmap")
    add("map-without-poset", files, "validate", "map", "m.json")
    add("unrecognized", files, "validate", "poset", "p.json", "--bogus")
    add("max-lattice-zero", files, "dual", "poset", "p.json", "--max-lattice", "0")
    add("max-lattice-small", {"p.json": {"elements": list("abcdef"), "leq": []}},
        "dual", "poset", "p.json", "--max-lattice", "10")
    add("output-file", files, "fixpoints", "--poset", "p.json", "--map", "m.json", "-o", "out.txt")
    add("codomain", {"p.json": chain, "c.json": {"elements": ["r"], "leq": []}, "m.json": {"map": {"p": "r", "q": "r"}}},
        "validate", "map", "m.json", "--poset", "p.json", "--codomain", "c.json")
    _add_hom_law_cases(add)
    _add_twin_count_cases(add)
    return cases


def _add_hom_law_cases(add):
    """Homs that keep bottom and top, so that only the meet and join laws
    decide them, on the ideal lattices of an antichain (2×2), a chain and an
    ordinal sum of posets, under shuffled names and under names that run
    against the order.  Per lattice: the identity, a hom induced by a random
    monotone map, x ↦ top above bottom (keeps joins, breaks meets unless the
    lattice is a chain), x ↦ bottom below top (keeps meets, breaks joins
    unless a chain) and two swapped inner images.  Its own seed keeps the
    inputs of the cases before it."""
    from dualfix import build_poset, hom_from_dual
    from dualfix.jsonio import poset_to_obj
    from helpers import random_monotone_between

    rng = random.Random(20261019)
    bases = {
        "square": build_poset(["a", "b"], []),
        "chain": build_poset(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]),
        "sum": build_poset(list("abcdxyz"), [("a", "c"), ("b", "c"), ("c", "d"), ("d", "x"), ("d", "z"), ("x", "y")]),
    }
    for name, base in bases.items():
        for naming in ("shuffled", "reversed"):
            hom = hom_from_dual(random_monotone_between(rng, base, base))
            order = hom.domain.order
            fresh = [f"M{i:02d}" for i in range(len(order))]
            if naming == "shuffled":
                rng.shuffle(fresh)
                ranked = order.elements
            else:
                # each element named before everything below it
                ranked = sorted(order.elements, key=lambda x: -order.down_masks[order.index(x)].bit_count())
            rename = dict(zip(ranked, fresh))
            doc = poset_to_obj(order)
            lat = {"elements": sorted(fresh), "leq": [[rename[x], rename[y]] for x, y in doc["leq"]]}
            bot, top = rename[hom.domain.bot], rename[hom.domain.top]
            inner = sorted(x for x in fresh if x not in (bot, top))
            a, b = rng.sample(inner, 2)
            swap = {x: x for x in fresh}
            swap[a], swap[b] = b, a
            tables = {
                "identity": {x: x for x in fresh},
                "induced": {rename[x]: rename[y] for x, y in hom.table.items()},
                "up": {x: bot if x == bot else top for x in fresh},
                "down": {x: top if x == top else bot for x in fresh},
                "swap": swap,
            }
            for kind, table in tables.items():
                files = {"l.json": lat, "h.json": {"map": dict(sorted(table.items()))}}
                tag = f"law-{name}-{naming}-{kind}"
                add(f"{tag}-validate-hom", files, "validate", "hom", "h.json", "--lattice", "l.json")
                add(f"{tag}-fixpoints--count", files, "fixpoints", "--lattice", "l.json", "--hom", "h.json", "--count")


def _add_twin_count_cases(add):
    """``--count`` on posets whose elements share generating successors:
    ordinal sums of antichains, layered posets and an antichain below a
    grid, under shuffled names and under names that run against the order.
    The poset side adds three redundant closed pairs to each and counts
    under the identity, two random monotone maps and, where it is monotone,
    the map that sends every maximal element to the first one, which keeps
    many fix-points; the explicit side takes the ideal lattice of a smaller
    shape, renamed the same two ways, with the identity and the homs those
    maps induce.  Its own seed keeps the inputs of the cases before it."""
    from dualfix import build_poset, hom_from_dual
    from dualfix.jsonio import poset_to_obj
    from helpers import (
        antichain_shape,
        fresh_names,
        grid_shape,
        layered_shape,
        ordinal_sum,
        random_monotone_between,
        renamed_shape,
    )

    rng = random.Random(20261020)
    posets = {
        "osum-anti": ordinal_sum(antichain_shape(4), antichain_shape(3), antichain_shape(5)),
        "layered": layered_shape(4, 3),
        "anti-grid": ordinal_sum(antichain_shape(4), grid_shape(3, 3)),
        "grid-anti-anti": ordinal_sum(grid_shape(2, 3), antichain_shape(3), antichain_shape(2)),
    }
    for name, shape in posets.items():
        for naming in ("shuffled", "reversed"):
            elements, pairs = renamed_shape(shape, rng, naming)
            poset = build_poset(elements, pairs)
            closed = [(x, y) for x in poset for y in poset if x != y and poset.leq(x, y)]
            pairs += rng.sample(closed, 3)
            doc = {"elements": elements, "leq": [list(pair) for pair in pairs]}
            tables = {"identity": {x: x for x in elements}}
            for k in range(2):
                tables[f"monotone{k}"] = random_monotone_between(rng, poset, poset).table
            if (tops := _tops_collapsed(poset)) is not None:
                tables["tops"] = tops.table
            for kind, table in tables.items():
                files = {"p.json": doc, "m.json": {"map": table}}
                add(f"twin-{name}-{naming}-{kind}-fixpoints--count", files,
                    "fixpoints", "--poset", "p.json", "--map", "m.json", "--count")
    lattices = {
        "osum-anti": ordinal_sum(antichain_shape(2), antichain_shape(3), antichain_shape(2)),
        "layered": layered_shape(3, 2),
        "anti-grid": ordinal_sum(antichain_shape(2), grid_shape(2, 2)),
    }
    for name, shape in lattices.items():
        base = build_poset(*shape)
        for naming in ("shuffled", "reversed"):
            homs = {"identity": None}
            for k in range(2):
                homs[f"induced{k}"] = hom_from_dual(random_monotone_between(rng, base, base))
            if (tops := _tops_collapsed(base)) is not None:
                homs["tops"] = hom_from_dual(tops)
            order = homs["induced0"].domain.order
            rename = fresh_names(order, rng, naming, "L")
            lat = {"elements": sorted(rename.values()),
                   "leq": [[rename[x], rename[y]] for x, y in poset_to_obj(order)["leq"]]}
            for kind, hom in homs.items():
                table = {x: x for x in lat["elements"]} if hom is None else {
                    rename[x]: rename[y] for x, y in hom.table.items()}
                files = {"l.json": lat, "h.json": {"map": dict(sorted(table.items()))}}
                add(f"twin-{name}-{naming}-{kind}-lattice-fixpoints--count", files,
                    "fixpoints", "--lattice", "l.json", "--hom", "h.json", "--count")


def _tops_collapsed(poset):
    """x ↦ x except that every maximal element goes to the first one, or
    None when that map is not monotone or is the identity."""
    from dualfix import NotMonotone, is_monotone

    tops = [x for i, x in enumerate(poset.elements) if not poset.gen_masks[i]]
    if len(tops) < 2:
        return None
    try:
        return is_monotone({x: tops[0] if x in tops else x for x in poset.elements}, poset, poset)
    except NotMonotone:
        return None


def run_case(case, directory):
    """Replay one invocation from ``directory``; returns its result record.

    A file the invocation writes (``-o``) is read back into the record."""
    from dualfix.cli import main

    for name, text in case["files"].items():
        (directory / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(case["argv"]))
        written = {}
        for path in sorted(directory.iterdir()):
            if path.name not in case["files"]:
                written[path.name] = path.read_text(encoding="utf-8")
                path.unlink()
    finally:
        os.chdir(cwd)
    for name in case["files"]:
        (directory / name).unlink()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "written": written}


def test_cli_matches_the_golden_record(tmp_path):
    record = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(record) >= 200
    mismatches = []
    for case in record:
        got = run_case(case, tmp_path)
        want = {key: case[key] for key in ("exit", "stdout", "stderr", "written")}
        if got != want:
            mismatches.append(case["name"])
    assert mismatches == []


def _record(directory):
    cases = build_corpus()
    for case in cases:
        case.update(run_case(case, directory))
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(cases)} invocations in {GOLDEN}")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as scratch:
        _record(Path(scratch))

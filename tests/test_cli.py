import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dualfix.bitgraph
import dualfix.fixpoint
import dualfix.jsonio
import dualfix.lattice
import dualfix.poset
from dualfix import (
    AntisymmetryViolation,
    DuplicateElement,
    LatticeHom,
    MonotoneMap,
    NotDistributive,
    OrderIdeal,
    build_poset,
    coequalizer_general,
    hom_from_dual,
    ideal_lattice,
    is_homomorphism,
    iter_ideal_masks,
    lattice_from_order,
)
from dualfix.cli import EXIT_INTERNAL, UsageError, _dumps, _parse_exact, _parser, _quotient_json, main
from dualfix.jsonio import ParseError, load_obj, map_to_obj, poset_from_obj, poset_to_obj, quotient_to_obj
from helpers import (
    algorithm1,
    fresh_names,
    hom_quotient,
    labeled_posets,
    monotone_selfmaps,
    ordered_poset_from_obj,
    random_monotone_between,
    random_poset,
    text_load_obj,
)

TWO_CHAIN = {"elements": ["p", "q"], "leq": [["p", "q"]]}
TWO_ANTICHAIN = {"elements": ["a", "b"], "leq": []}
THREE_CHAIN = {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}
M3 = {
    "elements": ["0", "1", "a", "b", "c"],
    "leq": [["0", "a"], ["0", "b"], ["0", "c"], ["a", "1"], ["b", "1"], ["c", "1"]],
}
COLLAPSE = {"map": {"p": "q", "q": "q"}}
SWAP = {"map": {"a": "b", "b": "a"}}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_poset(self, capsys, write_json):
        code, out, _ = run(capsys, "validate", "poset", write_json("p.json", TWO_CHAIN))
        assert code == 0
        assert json.loads(out) == {"valid": True}

    def test_preorder_rejected(self, capsys, write_json):
        path = write_json("p.json", {"elements": ["x", "y"], "leq": [["x", "y"], ["y", "x"]]})
        code, out, _ = run(capsys, "validate", "poset", path)
        assert code == 2
        verdict = json.loads(out)
        assert verdict["valid"] is False
        assert verdict["error"] == "AntisymmetryViolation"

    def test_m3_lattice_rejected_with_witness_triple(self, capsys, write_json):
        code, out, _ = run(capsys, "validate", "lattice", write_json("m3.json", M3))
        assert code == 2
        verdict = json.loads(out)
        assert verdict["error"] == "NotDistributive"
        assert verdict["witness"] == ["a", "b", "c"]

    def test_valid_map(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "validate", "map", write_json("m.json", COLLAPSE),
            "--poset", write_json("p.json", TWO_CHAIN),
        )
        assert code == 0

    def test_non_monotone_map(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "validate", "map", write_json("m.json", {"map": {"p": "q", "q": "p"}}),
            "--poset", write_json("p.json", TWO_CHAIN),
        )
        assert code == 2
        assert json.loads(out)["error"] == "NotMonotone"

    def test_hom_join_violation(self, capsys, write_json):
        # the boolean square collapse that misses the join law
        hom = {"map": {"{}": "{}", "{a}": "{}", "{b}": "{}", "{a,b}": "{a,b}"}}
        # lattice file is the 2x2 boolean square given as its own order
        square = {
            "elements": ["{}", "{a}", "{b}", "{a,b}"],
            "leq": [["{}", "{a}"], ["{}", "{b}"], ["{a}", "{a,b}"], ["{b}", "{a,b}"]],
        }
        code, out, _ = run(
            capsys,
            "validate", "hom", write_json("h.json", hom),
            "--lattice", write_json("l.json", square),
        )
        assert code == 2
        verdict = json.loads(out)
        assert verdict["error"] == "NotHom"
        assert verdict["law"] == "join"

    def test_map_without_poset_is_usage_error(self, capsys, write_json):
        code, _, err = run(capsys, "validate", "map", write_json("m.json", COLLAPSE))
        assert code == 1
        assert "poset" in err


class TestMalformedInput:
    """A file nested too deep to decode, not UTF-8, or holding an integer
    too long to convert is a usage error that names the file, whichever
    input it is."""

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param(b"[" * 100_000, "maximum recursion depth exceeded", id="deep"),
            pytest.param(b'{"elements": ["\xff"]}', "can't decode byte 0xff", id="not-utf8"),
            pytest.param(
                b"[" + b"1" * 5000 + b"]", "Exceeds the limit", id="long-integer",
                marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"),
            ),
        ],
    )
    def test_is_a_parse_error_naming_the_file(self, capsys, write_json, tmp_path, body, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        poset = write_json("p.json", TWO_CHAIN)
        for argv in (["validate", "poset", str(bad)], ["fixpoints", "--count", "--poset", poset, "--map", str(bad)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {bad}: ") and message in err


class TestInputLayerAgainstTextMode:
    """Differential: load_obj, which decodes the bytes and translates
    newlines itself, and poset_from_obj, which builds a well-typed document
    before checking it, against the text-mode read and the checks in
    document order, exception and message byte for byte."""

    DOCS = [
        pytest.param(b"[" * 100_000, id="deep"),
        pytest.param(b'{"elements": ["\xff"]}', id="not-utf8"),
        pytest.param(b"[" + b"1" * 5000 + b"]", id="long-integer"),
        pytest.param(b'{"elements": ["a", "b", "a"], "leq": [["a", "b"], ["a"]]}', id="duplicate-then-malformed-pair"),
        pytest.param(b'{"elements": ["a", "b"], "leq": [{"a": 0, "b": 1}]}', id="pair-as-two-key-object"),
        pytest.param(b'{"elements": ["a", "b"],\r\n"leq": [["a", "b"]\r\n,,]}\r\n', id="crlf-syntax-error"),
        pytest.param(b'{"elements":\r["a",\r\r\n"b"],\r"leq": [["a",\r"b"]]}', id="cr-newlines"),
        pytest.param(b'{"elements":\r\n["a",\r\n"b\r\nc"]}', id="crlf-in-a-string"),
        pytest.param(b'{"elements": ["' + b"a" * 9000 + b'\xfe"]}', id="not-utf8-past-8k"),
        pytest.param(b'\xef\xbb\xbf{"elements": []}', id="byte-order-mark"),
        pytest.param(b'{"elements": ["a", "b"], "leq": [["a", "b", "a"]]}', id="three-item-pair"),
        pytest.param(b'{"elements": ["a", "b"], "leq": [["a", 1]]}', id="pair-with-a-number"),
        pytest.param(b'{"elements": ["a", "b"], "leq": [["a", ["b"]]]}', id="pair-with-a-list"),
        pytest.param(b'{"elements": ["a", "b"], "leq": ["ab"]}', id="pair-as-string"),
        pytest.param(b'{"elements": ["a", 2], "leq": []}', id="number-element"),
        pytest.param(b'{"elements": ["a", "b"], "leq": {"a": "b"}}', id="leq-object"),
        pytest.param(b'["a", "b"]', id="not-an-object"),
        pytest.param(b'{"elements": ["a", "b", "a"]}', id="duplicate"),
        pytest.param(b'{"elements": ["a", "b"], "leq": [["a", "c"]]}', id="unknown"),
        pytest.param(b'{"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]}', id="cycle"),
        pytest.param(b'{"elements": ["b", "a", "c"], "leq": [["c", "a"], ["a", "a"]]}', id="accepted"),
    ]

    @staticmethod
    def _outcome(load, build, path):
        try:
            poset = build(load(path))
        except Exception as exc:
            return type(exc).__name__, str(exc)
        return poset.elements, poset.up_masks

    @pytest.mark.parametrize("body", DOCS)
    def test_same_outcome_as_the_text_mode_read_and_ordered_checks(self, tmp_path, monkeypatch, body):
        path = tmp_path / "doc.json"
        path.write_bytes(body)
        calls = []
        build = dualfix.jsonio.build_poset

        def counted(elements, pairs):
            calls.append(1)
            return build(elements, pairs)

        monkeypatch.setattr(dualfix.jsonio, "build_poset", counted)
        got = self._outcome(load_obj, poset_from_obj, path)
        assert len(calls) <= 1  # a refused document is built at most once
        assert got == self._outcome(text_load_obj, ordered_poset_from_obj, path)

    def test_a_document_refused_by_the_build_is_built_once(self, monkeypatch):
        calls = []
        build = dualfix.jsonio.build_poset
        monkeypatch.setattr(dualfix.jsonio, "build_poset", lambda *args: calls.append(1) or build(*args))
        for doc, error in (
            ({"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]}, AntisymmetryViolation),
            ({"elements": ["a", "a"], "leq": []}, DuplicateElement),
            ({"elements": ["a", "b", "a"], "leq": [["a", "b"], ["a"]]}, ParseError),
        ):
            del calls[:]
            with pytest.raises(error):
                poset_from_obj(doc)
            assert calls == [1]


class TestValidateAtTheLatticeCap:
    def test_boolean_lattice_of_4096_elements(self, capsys, write_json):
        # 2^12, the default element cap: a cubic check would take hours
        names = [f"{m:03x}" for m in range(1 << 12)]
        leq = [[names[m], names[m | 1 << k]] for m in range(1 << 12) for k in range(12) if not m >> k & 1]
        lattice = write_json("l.json", {"elements": names, "leq": leq})
        code, out, _ = run(capsys, "validate", "lattice", lattice)
        assert code == 0
        assert json.loads(out) == {"valid": True}
        identity = write_json("h.json", {"map": {x: x for x in names}})
        code, out, _ = run(capsys, "validate", "hom", identity, "--lattice", lattice)
        assert code == 0
        assert json.loads(out) == {"valid": True}

    def test_boolean_lattice_with_m3_above_its_top_is_rejected(self, capsys, write_json):
        # 2^10 plus M3 above its top, 1028 elements: the 1024 Boolean rows
        # come first in identifier order and hold only join-prime
        # irreducibles, so the witness scan skips them (the full cubic scan
        # took minutes here)
        names = [f"b{m:04d}" for m in range(1 << 10)]
        leq = [[names[m], names[m | 1 << k]] for m in range(1 << 10) for k in range(10) if not m >> k & 1]
        leq += [[names[-1], x] for x in ("x0", "x1", "x2")] + [[x, "y"] for x in ("x0", "x1", "x2")]
        obj = {"elements": names + ["x0", "x1", "x2", "y"], "leq": leq}
        with pytest.raises(NotDistributive) as exc:
            lattice_from_order(poset_from_obj(obj))
        assert exc.value.args == NotDistributive("x0", "x1", "x2").args
        code, out, err = run(capsys, "validate", "lattice", write_json("l.json", obj))
        assert code == 2 and err == ""
        assert json.loads(out) == exc.value.verdict()
        assert json.loads(out)["witness"] == ["x0", "x1", "x2"]


class TestInternalErrors:
    def test_lattice_check_disagreement_is_exit_4(self, capsys, write_json, monkeypatch):
        # the fast check rejecting a distributive lattice leaves the witness
        # scans without a witness
        monkeypatch.setattr(dualfix.lattice, "_birkhoff", lambda order: None)
        code, out, err = run(capsys, "validate", "lattice", write_json("l.json", THREE_CHAIN))
        assert code == EXIT_INTERNAL == 4
        assert out == ""
        assert err.startswith("error: internal: ")

    def test_hom_check_disagreement_is_exit_4(self, capsys, write_json, monkeypatch):
        monkeypatch.setattr(dualfix.lattice, "_preserves_laws", lambda image, domain, codomain: None)
        code, out, err = run(
            capsys,
            "fixpoints",
            "--lattice", write_json("l.json", THREE_CHAIN),
            "--hom", write_json("h.json", {"map": {"0": "0", "m": "m", "1": "1"}}),
        )
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("error: internal: ")


    def test_list_guard_is_exit_4(self, capsys, write_json, monkeypatch):
        # With the member masks of the first and the last class of the
        # identity quotient of the chain 0 < m < 1 swapped, the classes
        # still partition the base, but the first fix-point listed after []
        # would be {m}, which is not down-closed; the class-level guard
        # must stop it.  The explicit side lists through the same guard: on
        # the 3-chain lattice its base is J = {m < 1}, and with the masks
        # swapped the fix-point after bottom would be {1}.  A union of
        # principal ideals is an ideal, so only the guard can stop it.
        naming = dualfix.fixpoint.QuotientPoset._naming

        def swapped(self):
            names, classes, order, masks = naming(self)
            return names, classes, order, masks[-1:] + masks[1:-1] + masks[:1]

        identity = write_json("m.json", {"map": {"0": "0", "m": "m", "1": "1"}})
        cases = [
            (["--poset", write_json("p.json", THREE_CHAIN), "--map", identity], '[]\n["0"]\n["0","m"]\n["0","1","m"]\n', "[]\n", "['m']"),
            (["--lattice", write_json("l.json", THREE_CHAIN), "--hom", identity], '"0"\n"m"\n"1"\n', '"0"\n', "['1']"),
        ]
        for args, listed, before, bad in cases:
            assert run(capsys, "fixpoints", *args, "--list") == (0, listed, "")
            with monkeypatch.context() as patch:
                patch.setattr(dualfix.fixpoint.QuotientPoset, "_naming", swapped)
                code, out, err = run(capsys, "fixpoints", *args, "--list")
            assert code == EXIT_INTERNAL
            assert out == before
            assert err == f"error: internal: fix-point {bad} is not down-closed in the base\n"


class TestQuotientAtScale:
    # The identity's quotient is the base itself: one class per element and
    # the base's covers.  Checked against closed forms; no time is asserted.
    @staticmethod
    def _identity_quotient(capsys, write_json, ids, pairs):
        code, out, _ = run(
            capsys,
            "fixpoints", "--quotient",
            "--poset", write_json("p.json", {"elements": ids, "leq": pairs}),
            "--map", write_json("m.json", {"map": {x: x for x in ids}}),
        )
        assert code == 0
        return json.loads(out)

    def test_chain_of_3000(self, capsys, write_json):
        ids = [f"c{i:04d}" for i in range(3000)]
        obj = self._identity_quotient(capsys, write_json, ids, [[a, b] for a, b in zip(ids, ids[1:])])
        assert obj["classes"] == {f"[{x}]": [x] for x in ids}
        assert obj["leq"] == [[f"[{a}]", f"[{b}]"] for a, b in zip(ids, ids[1:])]
        assert len(obj["leq"]) == 3000 - 1

    def test_grid_of_50_by_60(self, capsys, write_json):
        g = [[f"g{r:02d}x{c:02d}" for c in range(60)] for r in range(50)]
        ids = [x for row in g for x in row]
        covers = []
        for r in range(50):
            for c in range(60):
                if c + 1 < 60:
                    covers.append([g[r][c], g[r][c + 1]])
                if r + 1 < 50:
                    covers.append([g[r][c], g[r + 1][c]])
        # generating pairs in reverse, so the input order is not the output's
        obj = self._identity_quotient(capsys, write_json, ids, covers[::-1])
        assert obj["classes"] == {f"[{x}]": [x] for x in ids}
        assert obj["leq"] == [[f"[{a}]", f"[{b}]"] for a, b in covers]
        assert len(obj["leq"]) == 50 * 59 + 49 * 60

    def test_lattice_chain_of_1024(self, capsys, write_json):
        # every element but the bottom is join-irreducible, so the quotient
        # is a chain of 1023 singleton classes
        ids = [f"c{i:04d}" for i in range(1024)]
        code, out, _ = run(
            capsys,
            "fixpoints", "--quotient",
            "--lattice", write_json("l.json", {"elements": ids, "leq": [[a, b] for a, b in zip(ids, ids[1:])]}),
            "--hom", write_json("h.json", {"map": {x: x for x in ids}}),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["classes"] == {f"[{x}]": [x] for x in ids[1:]}
        assert obj["leq"] == [[f"[{a}]", f"[{b}]"] for a, b in zip(ids[1:], ids[2:])]
        assert len(obj["leq"]) == 1023 - 1


class TestParserReuse:
    def test_repeated_main_calls_match_fresh_processes(self, capsys, write_json, monkeypatch):
        # main() builds its parser once per process; a sequence of calls in
        # one process, failing ones included, must answer like fresh ones.
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(dualfix.__file__).parents[1]))
        poset = write_json("p.json", TWO_CHAIN)
        mapping = write_json("m.json", COLLAPSE)
        sequence = [
            ["validate", "map", mapping, "--poset", poset],
            ["fixpoints", "--poset", poset, "--map", mapping, "--count", "--list"],
            ["--help"],
            ["fixpoints", "--poset", poset, "--map", mapping, "--quotient"],
            ["validate", "map", mapping, "--poset", poset],
            # forms argparse parses or refuses itself, around exact ones
            ["fixpoints", "--poset", poset, "--map", mapping, "--quot"],
            ["fixpoints", f"--poset={poset}", "--map", mapping, "--count"],
            ["fixpoints", "--poset", poset, "--map", mapping, "--count", "--quotient"],
            ["validate", "map", mapping, "--poset", poset, "--max-lattice", "0"],
            ["fixpoints", "--poset", poset, "--map"],
            ["fixpoints", "-h"],
            ["validate", "map", mapping, "--poset", poset],
        ]
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "dualfix.cli", *argv], capture_output=True, text=True, env=env
            )
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert [code, fresh.stdout] == [0, '{"valid":true}\n']
        assert _parser() is _parser()


# Each subcommand's valid positionals, and its options with a valid value
# (None for a flag); every subcommand also takes COMMON_OPTIONS.
GRAMMAR = {
    "validate": (["map", "m.json"], {"--poset": "p.json", "--lattice": "l.json", "--codomain": "c.json"}),
    "dual": (["lattice", "l.json"], {}),
    "dualmap": ([], {"--poset": "p.json", "--map": "m.json", "--lattice": "l.json", "--hom": "h.json"}),
    "fixpoints": (
        [],
        {"--poset": "p.json", "--map": "m.json", "--lattice": "l.json", "--hom": "h.json",
         "--list": None, "--count": None, "--quotient": None},
    ),
    "compare": ([], {"--poset": "p.json", "--map": "m.json", "--artifact": "a.json"}),
    "dot": (["quotient", "m.json"], {"--poset": "p.json"}),
    "bench": ([], {"--shape": "grid", "--n": "9", "--map-kind": "collapse", "--count-cap": "64"}),
}
COMMON_OPTIONS = {"-o": "out.txt", "--output": "out.txt", "--max-lattice": "16"}
ODD_VALUES = ["", "0", "abc", "a=b", "1.5", "chain", "-5", "-", "--count", "-o"]
# tokens that are no exact option string of any subcommand
INEXACT = ["--quot", "--cou", "--pos", "--max", "--out", "--sha", "--map-k", "-h", "--help", "--", "--bogus",
           "--poset=p.json", "--n=3", "--max-lattice=5", "-oout.txt", "--count=1"]


def _random_argv(rng):
    """A seeded argv built from GRAMMAR, and whether it holds a token that
    the exact parser must decline: an inexact one, or a value or
    positional starting with '-'."""
    command = rng.choice(list(GRAMMAR))
    positionals, options = GRAMMAR[command]
    options = {**options, **COMMON_OPTIONS}
    pieces = [[p] for p in positionals[: rng.choice([len(positionals)] * 4 + [0, 1])]]
    for flag in rng.sample(list(options), rng.randint(0, min(5, len(options)))):
        pieces.append([flag] if options[flag] is None else [flag, options[flag]])
    if pieces and rng.random() < 0.2:
        pieces.append(list(rng.choice(pieces)))  # a repeat
    outside = False
    for piece in pieces:
        if len(piece) == 2 or not piece[0].startswith("-"):
            if rng.random() < 0.1:
                piece[-1] = rng.choice(ODD_VALUES)
                outside |= piece[-1].startswith("-")
    if rng.random() < 0.25:
        pieces.insert(rng.randint(0, len(pieces)), [rng.choice(INEXACT)])
        outside = True
    if pieces and rng.random() < 0.1:
        rng.shuffle(pieces)
        outside |= any(p[0].startswith("-") for p in pieces[: len(positionals)])
    argv = [command] + [token for piece in pieces for token in piece]
    if rng.random() < 0.03:
        argv[0] = rng.choice(["", "fix", "FIXPOINTS", "-h", "--help"])
        outside |= argv[0].startswith("-")
    if not outside and rng.random() < 0.05:
        argv.pop()  # a missing value, positional or subcommand
    return argv, outside


class TestExactArgv:
    """``_parse_exact`` against argparse: on every argv it gives None or
    the Namespace argparse gives, attributes in the same order; None
    whenever argparse refuses; and None whenever a token is not exact."""

    @staticmethod
    def check(argv, outside=False):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                want = _parser().parse_args(argv)
        except (UsageError, SystemExit):
            want = None
        got = _parse_exact(argv)
        if got is not None:
            assert want is not None, argv
            assert list(vars(got).items()) == list(vars(want).items()), argv
            assert not outside, argv
        return got, want

    def test_every_golden_argv_that_argparse_accepts(self):
        record = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
        results = [self.check(case["argv"]) for case in record]
        assert all(got is not None for got, want in results if want is not None)
        assert sum(want is not None for _, want in results) >= len(record) - 5

    def test_the_benchmark_shapes(self):
        shapes = [["fixpoints", "--poset", "/w/P.json", "--map", "/w/M.json", f"--{mode}"]
                  for mode in ("count", "list", "quotient")]
        shapes.append(["fixpoints", "--lattice", "/w/L.json", "--hom", "/w/H.json", "--count"])
        for argv in shapes:
            got, _ = self.check(argv + ["-o", "/w/out.txt"])
            assert got is not None

    def test_tokens_that_are_not_strings_are_declined(self):
        assert _parse_exact(["dual", "poset", Path("p.json")]) is None
        assert _parse_exact([]) is None

    def test_seeded_argv(self):
        rng = random.Random(20261019)
        fired = declined = 0
        for _ in range(6000):
            got, want = self.check(*_random_argv(rng))
            fired += got is not None
            declined += got is None and want is not None
        # both sides of the contract must be exercised
        assert fired >= 1000 and declined >= 600, (fired, declined)


class TestFixpoints:
    def test_list_dual_side(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
            "--list",
        )
        assert code == 0
        assert out.splitlines() == ["[]", '["p","q"]']

    def test_list_lines_are_the_json_of_each_member(self, capsys, write_json):
        # names that JSON escapes: a quote, a backslash, a control
        # character, non-ASCII text and a character outside the BMP
        names = ['q"', "b\\s", "t\t", "caf\u00e9", "\u2603", "\U0001f600", "plain"]
        obj = {"elements": names, "leq": [[names[0], names[1]], [names[2], names[3]]]}
        code, out, _ = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", obj),
            "--map", write_json("m.json", {"map": {x: x for x in names}}),
            "--list",
        )
        fx = dualfix.fixpoint.fixpoints_via_duality(MonotoneMap.identity(poset_from_obj(obj)))
        expected = [json.dumps(list(m.members), sort_keys=True, separators=(",", ":")) for m in fx.iter_members()]
        assert (code, out) == (0, "".join(line + "\n" for line in expected))
        assert len(expected) == 3 * 3 * 2**3

    def test_list_explicit_side_matches_algorithm1_per_ideal(self, capsys, write_json):
        # the CLI joins each quotient ideal's irreducibles from per-class
        # rows; algorithm1 rebuilds each fix-point from the ideal itself
        rng = random.Random(227)
        lines = 0
        for k in range(40):
            base = random_poset(rng, rng.randrange(0, 7))
            phi = MonotoneMap.identity(base) if k % 4 == 0 else random_monotone_between(rng, base, base)
            induced = hom_from_dual(phi)
            lattice_obj = poset_to_obj(induced.domain.order)
            code, out, err = run(
                capsys,
                "fixpoints",
                "--lattice", write_json("l.json", lattice_obj),
                "--hom", write_json("h.json", map_to_obj(induced.table)),
                "--list",
            )
            lat = lattice_from_order(poset_from_obj(lattice_obj))
            hom = is_homomorphism(induced.table, lat, lat)
            quo = hom_quotient(hom)
            cp = quo.class_poset
            expected = [json.dumps(algorithm1(hom, OrderIdeal(cp, m), quotient=quo)) for m in iter_ideal_masks(cp)]
            assert (code, out, err) == (0, "".join(line + "\n" for line in expected), "")
            lines += len(expected)
        assert lines > 100

    def test_count_dual_side(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
            "--count",
        )
        assert code == 0
        assert out.strip() == "2"

    def test_count_identity_on_antichain(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", TWO_ANTICHAIN),
            "--map", write_json("m.json", {"map": {"a": "a", "b": "b"}}),
            "--count",
        )
        assert code == 0
        assert out.strip() == "4"

    def test_quotient_view(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
            "--quotient",
        )
        assert code == 0
        assert json.loads(out) == {"classes": {"[p]": ["p", "q"]}, "leq": []}

    def test_list_explicit_side(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "fixpoints",
            "--lattice", write_json("l.json", THREE_CHAIN),
            "--hom", write_json("h.json", {"map": {"0": "0", "m": "0", "1": "1"}}),
            "--list",
        )
        assert code == 0
        assert out.splitlines() == ['"0"', '"1"']

    def test_mixed_inputs_rejected(self, capsys, write_json):
        code, _, err = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--hom", write_json("h.json", COLLAPSE),
        )
        assert code == 1

    def test_invalid_map_is_exit_2(self, capsys, write_json):
        code, _, err = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", {"map": {"p": "q", "q": "p"}}),
        )
        assert code == 2
        assert json.loads(err)["error"] == "NotMonotone"


class TestClassNamesSortUnlikeIdentifiers:
    # "[c10]" < "[c1]" although "c1" < "c10"; these used to exit 1
    ODD = {"elements": ["c1", "c10", "c2"], "leq": [["c1", "c2"]]}
    IDENTITY = {"map": {"c1": "c1", "c10": "c10", "c2": "c2"}}
    CHAIN = {"elements": ["b", "x1", "x10"], "leq": [["b", "x1"], ["x1", "x10"]]}

    def test_poset_side(self, capsys, write_json, tmp_path):
        args = ["--poset", write_json("p.json", self.ODD), "--map", write_json("m.json", self.IDENTITY)]
        code, out, _ = run(capsys, "fixpoints", *args, "--quotient")
        assert code == 0
        assert json.loads(out) == {
            "classes": {"[c10]": ["c10"], "[c1]": ["c1"], "[c2]": ["c2"]},
            "leq": [["[c1]", "[c2]"]],
        }
        assert run(capsys, "fixpoints", *args, "--count") == (0, "6\n", "")
        code, out, _ = run(capsys, "fixpoints", *args, "--list")
        assert code == 0
        assert out.splitlines() == ["[]", '["c10"]', '["c1"]', '["c1","c10"]', '["c1","c2"]', '["c1","c10","c2"]']
        code, out, _ = run(capsys, "compare", *args, "--artifact", str(tmp_path / "cex.json"))
        assert (code, json.loads(out)) == (0, {"agree": True, "classes": 3, "fixpoints": 6})
        code, out, _ = run(capsys, "dot", "quotient", args[3], "--poset", args[1])
        assert code == 0
        assert 'label="[c10]";' in out

    def test_lattice_side(self, capsys, write_json):
        args = [
            "--lattice", write_json("l.json", self.CHAIN),
            "--hom", write_json("h.json", {"map": {"b": "b", "x1": "x1", "x10": "x10"}}),
        ]
        code, out, _ = run(capsys, "fixpoints", *args, "--quotient")
        assert code == 0
        assert json.loads(out) == {"classes": {"[x10]": ["x10"], "[x1]": ["x1"]}, "leq": [["[x1]", "[x10]"]]}
        assert run(capsys, "fixpoints", *args, "--count") == (0, "3\n", "")
        assert run(capsys, "fixpoints", *args, "--list") == (0, '"b"\n"x1"\n"x10"\n', "")


class TestCountNamesNoClass:
    # A count reads the quotient's unnamed class graph.  With the naming
    # step made to raise, every fixpoints --count of the golden record still
    # gives its recorded result, on both sides; --quotient, --list and dot
    # name the classes, in name order also where it is not the order of the
    # least members.

    @staticmethod
    def _refuse_naming(monkeypatch):
        def refuse(self):
            raise AssertionError("a count named the quotient's classes")

        monkeypatch.setattr(dualfix.fixpoint.QuotientPoset, "_naming", refuse)

    def test_golden_counts_name_nothing(self, monkeypatch, tmp_path):
        from test_golden import GOLDEN, run_case

        record = json.loads(GOLDEN.read_text(encoding="utf-8"))
        counts = [case for case in record if case["argv"][0] == "fixpoints" and "--count" in case["argv"]]
        assert {"--poset" in case["argv"] for case in counts} == {True, False}
        self._refuse_naming(monkeypatch)
        for case in counts:
            assert run_case(case, tmp_path) == {key: case[key] for key in ("exit", "stdout", "stderr", "written")}, case["name"]

    def test_names_against_the_least_members(self, capsys, monkeypatch, write_json):
        odd = TestClassNamesSortUnlikeIdentifiers
        poset_side = ["--poset", write_json("p.json", odd.ODD), "--map", write_json("m.json", odd.IDENTITY)]
        explicit = [
            "--lattice", write_json("l.json", odd.CHAIN),
            "--hom", write_json("h.json", {"map": {"b": "b", "x1": "x1", "x10": "x10"}}),
        ]
        with monkeypatch.context() as patch:
            self._refuse_naming(patch)
            assert run(capsys, "fixpoints", *poset_side, "--count") == (0, "6\n", "")
            assert run(capsys, "fixpoints", *explicit, "--count") == (0, "3\n", "")
            assert run(capsys, "bench", "--shape", "chain", "--n", "12", "--map-kind", "identity")[0] == 0
        assert run(capsys, "fixpoints", *poset_side, "--quotient") == (
            0, '{"classes":{"[c10]":["c10"],"[c1]":["c1"],"[c2]":["c2"]},"leq":[["[c1]","[c2]"]]}\n', ""
        )
        assert run(capsys, "fixpoints", *poset_side, "--list") == (
            0, '[]\n["c10"]\n["c1"]\n["c1","c10"]\n["c1","c2"]\n["c1","c10","c2"]\n', ""
        )
        clusters = "".join(
            f'  subgraph cluster_{i} {{\n    label="[{x}]";\n    "{x}";\n  }}\n' for i, x in enumerate(["c10", "c1", "c2"])
        )
        dot = "digraph {\n  rankdir=BT;\n  compound=true;\n" + clusters
        dot += '  "c1" -> "c2" [ltail=cluster_1, lhead=cluster_2];\n}\n'
        assert run(capsys, "dot", "quotient", poset_side[3], "--poset", poset_side[1]) == (0, dot, "")
        assert run(capsys, "fixpoints", *explicit, "--quotient") == (
            0, '{"classes":{"[x10]":["x10"],"[x1]":["x1"]},"leq":[["[x1]","[x10]"]]}\n', ""
        )
        assert run(capsys, "fixpoints", *explicit, "--list") == (0, '"b"\n"x1"\n"x10"\n', "")

    def test_answers_on_a_collapsing_map_build_one_class_poset(self, capsys, monkeypatch, write_json):
        # Names that sort like the least members let --quotient, --list and
        # dot walk the quotient's graph, so only the graph is built.
        built = []

        def recorded(*args):
            built.append(generated(*args))
            return built[-1]

        generated = dualfix.fixpoint._generated_poset
        monkeypatch.setattr(dualfix.fixpoint, "_generated_poset", recorded)
        chain = {"elements": ["a", "b", "c", "d"], "leq": [["a", "b"], ["b", "c"], ["c", "d"]]}
        collapse = {"map": {"a": "b", "b": "b", "c": "d", "d": "d"}}
        poset_side = ["--poset", write_json("p.json", chain), "--map", write_json("m.json", collapse)]
        lattice = {"elements": ["0", "m", "n", "1"], "leq": [["0", "m"], ["m", "n"], ["n", "1"]]}
        hom = {"map": {"0": "0", "m": "n", "n": "n", "1": "1"}}
        explicit = ["--lattice", write_json("l.json", lattice), "--hom", write_json("h.json", hom)]
        for argv in (
            ["fixpoints", *poset_side, "--quotient"],
            ["fixpoints", *poset_side, "--list"],
            ["dot", "quotient", poset_side[3], "--poset", poset_side[1]],
            ["fixpoints", *explicit, "--quotient"],
            ["fixpoints", *explicit, "--list"],
        ):
            built.clear()
            assert run(capsys, *argv)[0] == 0
            assert len(built) == 1, argv


class TestIdentityQuotientBuildsNoClassPoset:
    # The identity's quotient graph is the base itself; when the class
    # names sort like its identifiers, --quotient, --list and dot quotient
    # read the base's generating edges, build no second poset and close
    # nothing on the base.
    GRID = {
        "elements": ["g00", "g01", "g02", "g10", "g11", "g12"],
        "leq": [["g00", "g01"], ["g01", "g02"], ["g10", "g11"], ["g11", "g12"], ["g00", "g10"], ["g01", "g11"],
                ["g02", "g12"], ["g00", "g02"], ["g00", "g12"]],
    }

    def test_answers_build_no_class_poset(self, capsys, monkeypatch, write_json):
        built, bases = [], []

        def refused(*args):
            built.append(args)
            raise AssertionError("a class poset was built")

        def loading(obj):
            bases.append(poset_from_obj(obj))
            return bases[-1]

        monkeypatch.setattr(dualfix.fixpoint, "_generated_poset", refused)
        monkeypatch.setattr(dualfix.cli, "poset_from_obj", loading)
        identity = {"map": {x: x for x in self.GRID["elements"]}}
        args = ["--poset", write_json("p.json", self.GRID), "--map", write_json("m.json", identity)]
        for argv in (["fixpoints", *args, "--quotient"], ["fixpoints", *args, "--list"], ["dot", "quotient", args[3], "--poset", args[1]]):
            bases.clear()
            code, out, err = run(capsys, *argv)
            assert (code, err, built, len(bases)) == (0, "", [], 1), argv
            assert bases[0]._up_masks is None and bases[0]._down_masks is None, argv
        monkeypatch.undo()
        base = build_poset(self.GRID["elements"], self.GRID["leq"])
        quo = coequalizer_general(MonotoneMap.identity(base))
        assert run(capsys, "fixpoints", *args, "--quotient") == (0, _dumps(quotient_to_obj(quo)) + "\n", "")


class TestQuotientWriter:
    # fixpoints --quotient joins its answer from names encoded once, and
    # must give the bytes of _dumps(quotient_to_obj(q))
    ESCAPED = ['a"b', "c\\d", "\x01", "\n", "\x7f", "\u00e9", "\u2603", "\U0001f600", "[", "]", "", " "]

    def test_every_monotone_selfmap_of_every_poset_of_at_most_4_elements(self):
        for n in range(5):
            for p in labeled_posets(n):
                for phi in monotone_selfmaps(p):
                    quo = coequalizer_general(phi)
                    assert _quotient_json(quo) == _dumps(quotient_to_obj(quo))

    def test_names_that_json_escapes(self):
        rng = random.Random(173)
        for _ in range(300):
            p = random_poset(rng, rng.randrange(0, 7))
            rename = dict(zip(p.elements, rng.sample(self.ESCAPED, len(p))))
            base = build_poset(sorted(rename.values()), [(rename[x], rename[y]) for x, y in p.covers()])
            for phi in (MonotoneMap.identity(base), random_monotone_between(rng, base, base)):
                quo = coequalizer_general(phi)
                assert _quotient_json(quo) == _dumps(quotient_to_obj(quo))
            lat = lattice_from_order(ideal_lattice(base).order)
            quo = hom_quotient(LatticeHom.identity(lat))
            assert _quotient_json(quo) == _dumps(quotient_to_obj(quo))

    def test_cli_answer_with_escaped_names(self, capsys, write_json):
        ids = sorted(self.ESCAPED)
        doc = {"elements": ids, "leq": [[a, b] for a, b in zip(ids, ids[1:])]}
        code, out, _ = run(
            capsys,
            "fixpoints", "--quotient",
            "--poset", write_json("p.json", doc),
            "--map", write_json("m.json", {"map": {x: ids[0] for x in ids}}),
        )
        assert code == 0
        assert out == _dumps({"classes": {f"[{ids[0]}]": ids}, "leq": []}) + "\n"


class TestAcceptedInputsRunNoTarjanPass:
    # Tarjan's algorithm only names witnesses: build_poset, the quotient and
    # everything between them accept without it.
    GRID = {
        "elements": ["g00", "g01", "g10", "g11", "g20", "g21"],
        "leq": [["g00", "g01"], ["g10", "g11"], ["g20", "g21"], ["g00", "g10"], ["g10", "g20"], ["g01", "g11"], ["g11", "g21"]],
    }
    ROW_FLOOR = {"map": {"g00": "g00", "g01": "g00", "g10": "g10", "g11": "g10", "g20": "g20", "g21": "g20"}}

    @pytest.fixture(autouse=True)
    def refuse_tarjan(self, monkeypatch):
        def refuse(adj):
            raise AssertionError("tarjan_scc ran on an accepted input")

        for module in (dualfix.bitgraph, dualfix.poset, dualfix.fixpoint):
            if hasattr(module, "tarjan_scc"):
                monkeypatch.setattr(module, "tarjan_scc", refuse)

    @pytest.mark.parametrize("mode", ["--list", "--count", "--quotient"])
    def test_poset_and_map(self, capsys, write_json, mode):
        args = ["--poset", write_json("p.json", self.GRID)]
        for table in (self.ROW_FLOOR, {"map": {x: x for x in self.GRID["elements"]}}):
            code, _, err = run(capsys, "fixpoints", *args, "--map", write_json("m.json", table), mode)
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("mode", ["--list", "--count", "--quotient"])
    def test_lattice_and_hom(self, capsys, write_json, mode):
        code, out, _ = run(
            capsys, "dualmap", "--poset", write_json("p.json", self.GRID), "--map", write_json("m.json", self.ROW_FLOOR)
        )
        assert code == 0
        doc = json.loads(out)
        lattice = write_json("l.json", doc["lattice"])
        for hom in (doc["hom"], {"map": {x: x for x in doc["lattice"]["elements"]}}):
            code, _, err = run(capsys, "fixpoints", "--lattice", lattice, "--hom", write_json("h.json", hom), mode)
            assert (code, err) == (0, "")


class TestExplicitRequestLeavesBaseUnclosed:
    # is_homomorphism stores the dual it reads off the domain's generating
    # edges, and hom_quotient takes it from there, so no mode of an explicit
    # fixpoints request closes the join-irreducibles J of a lattice read
    # from an order, whichever way its identifiers run.
    @pytest.mark.parametrize("naming", ["ascending", "reversed"])
    @pytest.mark.parametrize("mode", ["--count", "--list", "--quotient"])
    def test_fixpoints_modes(self, capsys, write_json, monkeypatch, naming, mode):
        read = []

        def reading(order, max_size=None):
            read.append(lattice_from_order(order, max_size))
            return read[-1]

        monkeypatch.setattr(dualfix.cli, "lattice_from_order", reading)
        rng = random.Random(233)
        for _ in range(12):
            base = random_poset(rng, rng.randrange(1, 7))
            ideals = ideal_lattice(base)
            rename = fresh_names(ideals.order, rng, naming, "v")
            lattice = {"elements": sorted(rename.values()), "leq": [[rename[x], rename[y]] for x, y in ideals.order.covers()]}
            induced = hom_from_dual(random_monotone_between(rng, base, base), ideals, ideals)
            for table in ({x: x for x in rename.values()}, {rename[x]: rename[y] for x, y in induced.table.items()}):
                read.clear()
                code, _, err = run(
                    capsys, "fixpoints", "--lattice", write_json("l.json", lattice), "--hom", write_json("h.json", {"map": table}), mode
                )
                assert (code, err, len(read)) == (0, "", 1)
                j = read[0].ideal_base
                assert j._down_masks is None and j._up_masks is None


class TestDualAndDualmap:
    def test_dual_poset_gives_ideal_lattice_order(self, capsys, write_json):
        code, out, _ = run(capsys, "dual", "poset", write_json("p.json", TWO_CHAIN))
        assert code == 0
        obj = json.loads(out)
        assert obj["elements"] == ["{p,q}", "{p}", "{}"]
        assert sorted(map(tuple, obj["leq"])) == [("{p}", "{p,q}"), ("{}", "{p}")]

    def test_dual_lattice_gives_irreducible_poset(self, capsys, write_json):
        code, out, _ = run(capsys, "dual", "lattice", write_json("l.json", THREE_CHAIN))
        assert code == 0
        obj = json.loads(out)
        assert obj == {"elements": ["1", "m"], "leq": [["m", "1"]]}

    def test_dualmap_from_map(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "dualmap",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["hom"]["map"] == {"{}": "{}", "{p}": "{}", "{p,q}": "{p,q}"}

    def test_dualmap_from_hom(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "dualmap",
            "--lattice", write_json("l.json", THREE_CHAIN),
            "--hom", write_json("h.json", {"map": {"0": "0", "m": "0", "1": "1"}}),
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["poset"] == {"elements": ["1", "m"], "leq": [["m", "1"]]}
        assert obj["map"]["map"] == {"1": "1", "m": "1"}

    def test_dualmap_requires_one_side(self, capsys, write_json):
        code, _, err = run(capsys, "dualmap", "--poset", write_json("p.json", TWO_CHAIN))
        assert code == 1


class TestCompare:
    def test_agreement(self, capsys, write_json, tmp_path):
        code, out, _ = run(
            capsys,
            "compare",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
            "--artifact", str(tmp_path / "cex.json"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["agree"] is True
        assert report["fixpoints"] == 2
        assert not (tmp_path / "cex.json").exists()

    def test_identity_on_three_elements(self, capsys, write_json, tmp_path):
        poset = {"elements": ["x", "y", "z"], "leq": [["x", "y"]]}
        code, out, _ = run(
            capsys,
            "compare",
            "--poset", write_json("p.json", poset),
            "--map", write_json("m.json", {"map": {"x": "x", "y": "y", "z": "z"}}),
            "--artifact", str(tmp_path / "cex.json"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["agree"] is True
        # identity fixes every ideal: 3 on the chain part x 2 for the loose point
        assert report["fixpoints"] == 6

    def test_fault_injection_trips_exit_3(self, capsys, write_json, tmp_path, monkeypatch):
        # deliberately corrupt the dual route: drop the last member
        original = dualfix.fixpoint.FixpointLattice

        class Hobbled:
            def __init__(self, inner):
                self.inner = inner

            def iter_members(self):
                members = list(self.inner.iter_members())
                yield from members[:-1]

        monkeypatch.setattr(
            dualfix.fixpoint, "FixpointLattice", lambda phi, quotient: Hobbled(original(phi, quotient))
        )
        artifact = tmp_path / "cex.json"
        code, out, _ = run(
            capsys,
            "compare",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
            "--artifact", str(artifact),
        )
        assert code == 3
        report = json.loads(out)
        assert report["agree"] is False
        saved = json.loads(artifact.read_text())
        assert saved["poset"] == {"elements": ["p", "q"], "leq": [["p", "q"]]}
        assert saved["phi"] == {"map": {"p": "q", "q": "q"}}
        assert saved["bruteforce_fixpoints"] == ["{p,q}", "{}"]
        assert saved["dual_fixpoints"] == ["{}"]
        assert "classes" in saved["coequalizer"]


SEVEN_CHAIN = {"elements": [f"c{k}" for k in range(7)], "leq": [[f"c{k}", f"c{k + 1}"] for k in range(6)]}
SEVEN_IDENTITY = {"map": {f"c{k}": f"c{k}" for k in range(7)}}
NOT_MONOTONE = {"map": {"p": "q", "q": "p"}}


class TestOutputFile:
    """``-o`` and ``--artifact`` write over the target in place and cut a
    regular file to the bytes written."""

    def test_dev_null(self, capsys, write_json):
        code, out, err = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", SEVEN_CHAIN),
            "--map", write_json("m.json", SEVEN_IDENTITY),
            "-o", os.devnull,
        )
        assert (code, out, err) == (0, "", "")

    def test_pipe_in_a_fresh_process(self, write_json):
        env = dict(os.environ, PYTHONPATH=str(Path(dualfix.__file__).parents[1]))
        argv = ["fixpoints", "--poset", write_json("p.json", TWO_CHAIN), "--map", write_json("m.json", COLLAPSE)]
        fresh = subprocess.run(
            [sys.executable, "-m", "dualfix.cli", *argv, "-o", "/dev/stdout"], capture_output=True, text=True, env=env
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, '[]\n["p","q"]\n', "")

    def test_short_answer_over_a_longer_file(self, capsys, write_json, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("9" * 10_000 + "\n")
        code, out, _ = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
            "--count",
            "-o", str(target),
        )
        assert (code, out) == (0, "")
        assert target.read_bytes() == b"2\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["fixpoints", "--poset", "P", "--map", "missing.json"], 1),
            (["fixpoints", "--poset", "P", "--map", "BAD"], 2),
            (["fixpoints", "--poset", "P"], 1),
        ],
    )
    def test_failed_request_leaves_an_empty_file(self, capsys, write_json, tmp_path, argv, expected):
        files = {"P": write_json("p.json", TWO_CHAIN), "BAD": write_json("bad.json", NOT_MONOTONE)}
        target = tmp_path / "out.txt"
        target.write_text("old answer\n")
        code, out, err = run(capsys, *[files.get(a, a) for a in argv], "-o", str(target))
        assert (code, out) == (expected, "")
        assert err
        assert target.read_bytes() == b""

    @pytest.mark.parametrize("mode", ["--list", "--count", "--quotient"])
    @pytest.mark.parametrize("side", ["poset", "lattice"])
    def test_bytes_equal_stdout(self, capsys, write_json, tmp_path, mode, side):
        if side == "poset":
            inputs = ["--poset", write_json("p.json", SEVEN_CHAIN), "--map", write_json("m.json", SEVEN_IDENTITY)]
        else:
            square = {"elements": ["0", "a", "b", "1"], "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
            ident = {"map": {x: x for x in square["elements"]}}
            inputs = ["--lattice", write_json("l.json", square), "--hom", write_json("h.json", ident)]
        code, expected, _ = run(capsys, "fixpoints", *inputs, mode)
        assert code == 0 and expected
        target = tmp_path / "out.txt"
        target.write_text("x" * (3 * len(expected)))
        code, out, _ = run(capsys, "fixpoints", *inputs, mode, "-o", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == expected.encode("utf-8")

    def test_output_naming_its_own_input(self, capsys, write_json):
        # The input is read intact, since the output is not truncated when
        # it is opened, and the answer then replaces it.
        poset = write_json("p.json", TWO_CHAIN)
        mapping = write_json("m.json", COLLAPSE)
        code, out, err = run(capsys, "fixpoints", "--poset", poset, "--map", mapping, "--quotient", "-o", mapping)
        assert (code, out, err) == (0, "", "")
        code, expected, _ = run(capsys, "fixpoints", "--poset", poset, "--map", write_json("m2.json", COLLAPSE), "--quotient")
        assert code == 0
        assert Path(mapping).read_text(encoding="utf-8") == expected

    def test_a_run_that_stops_partway_leaves_its_partial_output(self, capsys, write_json, tmp_path, monkeypatch):
        original = dualfix.fixpoint.FixpointLattice.iter_members

        def first_then_fail(self):
            members = original(self)
            yield next(members)
            raise RuntimeError("stopped")

        monkeypatch.setattr(dualfix.fixpoint.FixpointLattice, "iter_members", first_then_fail)
        target = tmp_path / "out.txt"
        target.write_text("x" * 1000)
        code, _, err = run(
            capsys,
            "fixpoints",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
            "-o", str(target),
        )
        assert (code, err) == (EXIT_INTERNAL, "error: internal: stopped\n")
        assert target.read_bytes() == b"[]\n"

    def test_artifact_over_a_longer_file(self, capsys, write_json, tmp_path, monkeypatch):
        class NoMembers:
            def iter_members(self):
                return iter(())

        monkeypatch.setattr(dualfix.fixpoint, "FixpointLattice", lambda phi, quotient: NoMembers())
        artifact = tmp_path / "cex.json"
        artifact.write_text("x" * 10_000)
        code, _, _ = run(
            capsys,
            "compare",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
            "--artifact", str(artifact),
        )
        assert code == 3
        text = artifact.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text)["dual_fixpoints"] == []


class TestDot:
    def test_poset_hasse(self, capsys, write_json):
        code, out, _ = run(capsys, "dot", "poset", write_json("p.json", TWO_CHAIN))
        assert code == 0
        assert out == 'digraph {\n  rankdir=BT;\n  "p";\n  "q";\n  "p" -> "q";\n}\n'

    def test_map_graph_undirected(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "dot", "map", write_json("m.json", SWAP),
            "--poset", write_json("p.json", TWO_ANTICHAIN),
        )
        assert code == 0
        assert out == 'graph {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'

    def test_quotient_clusters(self, capsys, write_json):
        code, out, _ = run(
            capsys,
            "dot", "quotient", write_json("m.json", COLLAPSE),
            "--poset", write_json("p.json", TWO_CHAIN),
        )
        assert code == 0
        assert out.count("subgraph cluster_") == 1
        assert '"p";' in out and '"q";' in out
        assert "->" not in out.replace("rankdir", "")

    def test_transitive_edges_are_reduced(self, capsys, write_json):
        chain3 = {"elements": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"], ["0", "1"]]}
        code, out, _ = run(capsys, "dot", "poset", write_json("p.json", chain3))
        assert code == 0
        assert '"0" -> "1"' not in out
        assert '"0" -> "m"' in out and '"m" -> "1"' in out


class TestBench:
    def test_chain_identity_counts(self, capsys):
        code, out, _ = run(capsys, "bench", "--shape", "chain", "--n", "5", "--map-kind", "identity")
        assert code == 0
        report = json.loads(out)
        assert report["classes"] == 5
        assert report["dual_count"] == 6
        assert report["primal_count"] == 6
        assert report["counts_agree"] is True
        assert report["quotients_agree"] is True

    def test_antichain_collapse(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--shape", "antichain", "--n", "6", "--map-kind", "collapse"
        )
        assert code == 0
        report = json.loads(out)
        assert report["classes"] == 1
        assert report["dual_count"] == 2
        assert report["primal_count"] == 2

    def test_grid_identity(self, capsys):
        code, out, _ = run(capsys, "bench", "--shape", "grid", "--n", "9", "--map-kind", "identity")
        assert code == 0
        report = json.loads(out)
        assert report["elements"] == 9
        assert report["dual_count"] == report["primal_count"]

    def test_permutation_on_chain_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bench", "--shape", "chain", "--n", "4", "--map-kind", "permutation")
        assert code == 1
        assert "monotone" in err

    def test_count_cap_skips(self, capsys):
        code, out, _ = run(
            capsys,
            "bench", "--shape", "antichain", "--n", "8", "--map-kind", "identity",
            "--count-cap", "100",
        )
        assert code == 0
        report = json.loads(out)
        assert report["dual_count"] == "skipped (count above cap)"
        assert report["primal_count"] == "skipped (primal side infeasible)"

    def test_grid_count_above_cap_skips_both_sides(self, capsys):
        # 137846528820 ideals on each side: decided by the exact count
        code, out, _ = run(capsys, "bench", "--shape", "grid", "--n", "400", "--map-kind", "identity")
        assert code == 0
        report = json.loads(out)
        assert report["dual_count"] == "skipped (count above cap)"
        assert report["primal_count"] == "skipped (primal side infeasible)"
        assert "counts_agree" not in report

    def test_long_chain_identity_count(self, capsys):
        code, out, _ = run(capsys, "bench", "--shape", "chain", "--n", "1000", "--map-kind", "identity")
        assert code == 0
        report = json.loads(out)
        assert report["dual_count"] == 1001
        assert report["primal_count"] == 1001


TEN_CHAIN = {"elements": [f"c{k}" for k in range(10)], "leq": [[f"c{k}", f"c{k + 1}"] for k in range(9)]}
TEN_IDENTITY = {"map": {f"c{k}": f"c{k}" for k in range(10)}}


class TestLatticeCapFromTheEnvironment:
    """BIRKHOFF_MAX_LATTICE sets the default cap on explicit lattices;
    ``--max-lattice`` overrides it."""

    def test_the_variable_lowers_the_default(self, capsys, write_json, monkeypatch):
        monkeypatch.setenv("BIRKHOFF_MAX_LATTICE", "8")
        anti3 = {"elements": ["a", "b", "c"], "leq": []}
        code, out, _ = run(capsys, "dual", "poset", write_json("a.json", anti3))
        assert code == 0
        assert len(json.loads(out)["elements"]) == 8
        code, _, err = run(capsys, "dual", "poset", write_json("c.json", TEN_CHAIN))
        assert code == 2
        assert json.loads(err)["bound"] == 8

    def test_zero_is_a_usage_error(self, capsys, write_json, monkeypatch):
        monkeypatch.setenv("BIRKHOFF_MAX_LATTICE", "0")
        code, out, err = run(capsys, "dual", "poset", write_json("p.json", TWO_CHAIN))
        assert (code, out, err) == (1, "", "error: BIRKHOFF_MAX_LATTICE must be positive, got '0'\n")

    def test_a_non_integer_is_a_usage_error(self, capsys, write_json, monkeypatch):
        monkeypatch.setenv("BIRKHOFF_MAX_LATTICE", "abc")
        code, out, err = run(capsys, "dual", "poset", write_json("p.json", TWO_CHAIN))
        assert (code, out, err) == (1, "", "error: BIRKHOFF_MAX_LATTICE must be a positive integer, got 'abc'\n")

    def test_the_flag_overrides_the_variable_on_dual_poset(self, capsys, write_json, monkeypatch):
        monkeypatch.setenv("BIRKHOFF_MAX_LATTICE", "8")
        code, out, _ = run(capsys, "dual", "poset", write_json("c.json", TEN_CHAIN), "--max-lattice", "16")
        assert code == 0
        assert len(json.loads(out)["elements"]) == 11

    def test_the_flag_overrides_the_variable_on_compare(self, capsys, write_json, monkeypatch, tmp_path):
        # the brute-force scan runs on the lattice the flag capped, with no
        # second check against the variable
        monkeypatch.setenv("BIRKHOFF_MAX_LATTICE", "8")
        code, out, _ = run(
            capsys,
            "compare",
            "--poset", write_json("c.json", TEN_CHAIN),
            "--map", write_json("m.json", TEN_IDENTITY),
            "--artifact", str(tmp_path / "cex.json"),
            "--max-lattice", "16",
        )
        assert code == 0
        assert json.loads(out) == {"agree": True, "classes": 10, "fixpoints": 11}


class TestPlumbing:
    def test_missing_file_is_exit_1(self, capsys):
        code, _, err = run(capsys, "validate", "poset", "/nonexistent/x.json")
        assert code == 1

    def test_malformed_json_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", "poset", str(path))
        assert code == 1

    def test_bad_schema_is_exit_1(self, capsys, write_json):
        code, _, err = run(capsys, "validate", "poset", write_json("p.json", {"elements": [1, 2]}))
        assert code == 1

    def test_unknown_flag_is_exit_1(self, capsys):
        code, _, err = run(capsys, "validate", "--bogus")
        assert code == 1

    def test_output_file(self, capsys, write_json, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "validate", "poset", write_json("p.json", TWO_CHAIN), "-o", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text()) == {"valid": True}

    def test_determinism_byte_identical(self, capsys, write_json):
        args = [
            "fixpoints",
            "--poset", write_json("p.json", TWO_CHAIN),
            "--map", write_json("m.json", COLLAPSE),
            "--list",
        ]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_max_lattice_bound_respected(self, capsys, write_json):
        anti5 = {"elements": [f"a{k}" for k in range(5)], "leq": []}
        code, _, err = run(
            capsys,
            "dual", "poset", write_json("p.json", anti5),
            "--max-lattice", "31",
        )
        assert code == 2
        assert json.loads(err)["error"] == "SizeBoundExceeded"

    def test_non_positive_bounds_are_usage_errors(self, capsys, write_json):
        poset = write_json("p.json", TWO_CHAIN)
        code, out, err = run(capsys, "validate", "poset", poset, "--max-lattice", "0")
        assert (code, out, err) == (1, "", "error: argument --max-lattice: must be positive\n")
        code, out, err = run(
            capsys, "bench", "--shape", "chain", "--n", "3", "--map-kind", "identity", "--count-cap", "0"
        )
        assert (code, out, err) == (1, "", "error: argument --count-cap: must be positive\n")

    @pytest.mark.parametrize("token", [Path("p.json"), 3, None, b"p.json"])
    def test_a_non_string_token_is_a_usage_error(self, capsys, token):
        code, out, err = run(capsys, "validate", "poset", token)
        name = type(token).__name__
        assert (code, out, err) == (1, "", f"error: argument tokens must be strings, got {name} {token!r}\n")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bench", "--shape", "chain", "--n", "abc", "--map-kind", "identity"], "--n"),
            (["validate", "poset", "p.json", "--max-lattice", "1.5"], "--max-lattice"),
            (["bench", "--shape", "chain", "--n", "3", "--map-kind", "identity", "--count-cap", "x"], "--count-cap"),
        ],
    )
    def test_non_integer_bounds_are_usage_errors(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        text = argv[argv.index(flag) + 1]
        assert (code, out, err) == (1, "", f"error: argument {flag}: must be a positive integer, got {text!r}\n")

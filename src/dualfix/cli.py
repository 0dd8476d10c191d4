"""Command-line interface.

Subcommands: validate, dual, dualmap, fixpoints, compare, dot, bench.
Exit codes: 0 success, 1 usage or I/O error, 2 invalid input, 3 comparison
mismatch, 4 internal error (a failed internal consistency check, reported
on stderr as ``error: internal: ...``).  All output is deterministic except
the timing fields of bench.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from contextlib import contextmanager, nullcontext
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import isqrt

from . import fixpoint as fixpoint_mod
from .bitgraph import bits, select
from .duality import dual_map, hom_from_dual
from .errors import InvalidInput, NotMonotone, QuotientNotAntisymmetric, SizeBoundExceeded
from .jsonio import (
    ParseError,
    load_obj,
    map_to_obj,
    poset_from_obj,
    poset_to_obj,
    quotient_to_obj,
    table_from_obj,
)
from .lattice import ideal_lattice, is_homomorphism, join_irreducibles, lattice_from_order
from .poset import MonotoneMap, _cover_masks, build_poset, count_ideals, is_monotone, iter_ideal_masks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4

DEFAULT_COUNT_CAP = 1 << 20


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _positive(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


@contextmanager
def _overwrite(path):
    """A UTF-8 text file that writes ``path`` from its first byte and, on
    exit, cuts a regular file to the bytes written.

    Truncating on open makes ext4 flush the new data at close
    (``auto_da_alloc``), and the next open waits on that flush.  The bytes
    left are those a truncating open leaves: the answer, a stopped run's
    partial output, or nothing.  Targets that are not regular files, such
    as ``/dev/null``, cannot be truncated and are not cut.
    """
    fh = os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8")
    try:
        yield fh
    finally:
        try:
            fh.flush()
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
        finally:
            fh.close()


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argument parser, built once per process: argparse keeps no state
    between parse_args calls, and building seven subparsers costs more than
    most requests."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", metavar="PATH", help="write output here instead of stdout")
    common.add_argument(
        "--max-lattice",
        type=_positive,
        metavar="N",
        help="explicit-lattice element cap (default: BIRKHOFF_MAX_LATTICE or 4096)",
    )

    parser = _Parser(prog="dualfix", description="Fix-point lattices of lattice endomorphisms, computed on the order dual.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", parents=[common], help="validate a poset, lattice, map or hom file")
    p.add_argument("kind", choices=["poset", "lattice", "map", "hom"])
    p.add_argument("file")
    p.add_argument("--poset", metavar="PATH", help="domain poset for kind=map")
    p.add_argument("--lattice", metavar="PATH", help="domain lattice for kind=hom")
    p.add_argument("--codomain", metavar="PATH", help="codomain file (defaults to the domain)")

    p = sub.add_parser("dual", parents=[common], help="object duality: poset -> ideal lattice, lattice -> join-irreducible poset")
    p.add_argument("kind", choices=["poset", "lattice"])
    p.add_argument("file")

    p = sub.add_parser("dualmap", parents=[common], help="map duality: hom -> monotone map, monotone map -> hom")
    p.add_argument("--poset", metavar="PATH")
    p.add_argument("--map", dest="map_file", metavar="PATH")
    p.add_argument("--lattice", metavar="PATH")
    p.add_argument("--hom", dest="hom_file", metavar="PATH")

    p = sub.add_parser("fixpoints", parents=[common], help="enumerate or count all fix-points")
    p.add_argument("--poset", metavar="PATH")
    p.add_argument("--map", dest="map_file", metavar="PATH")
    p.add_argument("--lattice", metavar="PATH")
    p.add_argument("--hom", dest="hom_file", metavar="PATH")
    modes = p.add_mutually_exclusive_group()
    modes.add_argument("--list", dest="mode", action="store_const", const="list", help="stream fix-points (default)")
    modes.add_argument("--count", dest="mode", action="store_const", const="count")
    modes.add_argument("--quotient", dest="mode", action="store_const", const="quotient")
    p.set_defaults(mode="list")

    p = sub.add_parser("compare", parents=[common], help="differential check: dual route vs brute force")
    p.add_argument("--poset", metavar="PATH", required=True)
    p.add_argument("--map", dest="map_file", metavar="PATH", required=True)
    p.add_argument("--artifact", metavar="PATH", default="counterexample.json")

    p = sub.add_parser("dot", parents=[common], help="render DOT graphs")
    p.add_argument("kind", choices=["poset", "lattice", "map", "quotient"])
    p.add_argument("file")
    p.add_argument("--poset", metavar="PATH", help="carrier poset for kind=map/quotient")

    p = sub.add_parser("bench", parents=[common], help="time quotient construction and fix-point counting")
    p.add_argument("--shape", choices=["chain", "antichain", "grid"], required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--map-kind", choices=["identity", "collapse", "permutation"], required=True)
    p.add_argument("--count-cap", type=_positive, default=DEFAULT_COUNT_CAP)
    return parser


@lru_cache(maxsize=None)
def _exact_table() -> dict:
    """Per subcommand, read off ``_parser()``: its namespace defaults, its
    positionals, its single-value store and store_const options by exact
    option string, each with its mutually exclusive group (the action itself
    when it has none), and the actions and groups that are required.  A
    subcommand is left out when a positional is not a single-value store or
    a string default would go through its type."""

    def defaults(parser):
        # argparse's order: the first default per dest, then set_defaults
        # for dests no action has; SUPPRESS leaves the attribute unset.
        ns = {}
        for a in parser._actions:
            if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
                ns.setdefault(a.dest, a.default)
        for dest, value in parser._defaults.items():
            ns.setdefault(dest, value)
        return ns

    top = _parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    table = {}
    for name, p in sub.choices.items():
        positionals = [a for a in p._actions if not a.option_strings]
        if any(type(a) is not argparse._StoreAction or a.nargs is not None for a in positionals) or any(
            isinstance(a.default, str) and a.type is not None for a in p._actions
        ):
            continue
        group = {a: g for g in p._mutually_exclusive_groups for a in g._group_actions}
        options = {
            s: (a, group.get(a, a))
            for a in p._actions
            if type(a) is argparse._StoreConstAction or (type(a) is argparse._StoreAction and a.nargs is None)
            for s in a.option_strings
        }
        required = {a for a in p._actions if a.required} | {g for g in p._mutually_exclusive_groups if g.required}
        table[name] = ({**defaults(top), sub.dest: name, **defaults(p)}, positionals, options, required)
    return table


def _parse_exact(argv):
    """``_parser().parse_args(argv)`` for argv made of exact tokens: a
    subcommand, its positionals, then exact option strings, each at most
    once and at most one per mutually exclusive group, every value not
    starting with '-' and passing its type and choices, every required
    option present.  None for any other argv, which argparse then parses."""
    if not argv or not all(isinstance(t, str) for t in argv) or (entry := _exact_table().get(argv[0])) is None:
        return None
    defaults, positionals, options, required = entry
    i = len(positionals) + 1
    if len(argv) < i:
        return None
    steps, seen = list(zip(positionals, argv[1:i])), set(positionals)
    while i < len(argv):
        action, group = options.get(argv[i], (None, None))
        if action is None or group in seen or (action.nargs != 0 and i + 1 == len(argv)):
            return None
        seen |= {action, group}
        steps.append((action, None if action.nargs == 0 else argv[i + 1]))
        i += 1 if action.nargs == 0 else 2
    if not required <= seen:
        return None
    ns = argparse.Namespace(**defaults)
    for action, text in steps:
        if text is None:
            value = action.const
        elif text.startswith("-"):
            return None
        else:
            try:
                value = text if action.type is None else action.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        setattr(ns, action.dest, value)
    return ns


def parse_args(argv) -> argparse.Namespace:
    """The parsed arguments, with the input paths given attached as
    ``inputs``, keyed by role: file, poset, lattice, codomain, map, hom.

    ``argv=None`` reads ``sys.argv[1:]``.  Argv of exact tokens is parsed
    by ``_parse_exact``; anything else, help and every usage error included,
    goes to argparse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _parse_exact(argv)
    if ns is None:
        for token in argv:
            if not isinstance(token, str):
                raise UsageError(f"argument tokens must be strings, got {type(token).__name__} {token!r}")
        ns = _parser().parse_args(argv)
    dests = {"file": "file", "poset": "poset", "lattice": "lattice", "codomain": "codomain", "map": "map_file", "hom": "hom_file"}
    ns.inputs = {role: getattr(ns, dest) for role, dest in dests.items() if getattr(ns, dest, None) is not None}
    return ns


def _load_poset(cfg, role):
    path = cfg.inputs.get(role)
    if path is None:
        raise UsageError(f"--{role} is required here")
    return poset_from_obj(load_obj(path))


def _load_lattice(cfg, role):
    return lattice_from_order(_load_poset(cfg, role), max_size=cfg.max_lattice)


def _load_phi(cfg, role="map"):
    domain = _load_poset(cfg, "poset")
    codomain = _load_poset(cfg, "codomain") if "codomain" in cfg.inputs else domain
    return is_monotone(table_from_obj(load_obj(cfg.inputs[role])), domain, codomain)


def _load_hom(cfg, role="hom"):
    domain = _load_lattice(cfg, "lattice")
    codomain = _load_lattice(cfg, "codomain") if "codomain" in cfg.inputs else domain
    return is_homomorphism(table_from_obj(load_obj(cfg.inputs[role])), domain, codomain)


def _load_either_side(cfg):
    """The MonotoneMap from --poset/--map, or the LatticeHom from --lattice/--hom."""
    dual_side = "poset" in cfg.inputs or "map" in cfg.inputs
    primal_side = "lattice" in cfg.inputs or "hom" in cfg.inputs
    if dual_side == primal_side:
        raise UsageError("give either --poset with --map, or --lattice with --hom")
    if dual_side:
        if not ("poset" in cfg.inputs and "map" in cfg.inputs):
            raise UsageError("--poset and --map go together")
        return _load_phi(cfg)
    if not ("lattice" in cfg.inputs and "hom" in cfg.inputs):
        raise UsageError("--lattice and --hom go together")
    return _load_hom(cfg)


def cmd_validate(cfg, out) -> int:
    try:
        if cfg.kind == "poset":
            _load_poset(cfg, "file")
        elif cfg.kind == "lattice":
            _load_lattice(cfg, "file")
        elif cfg.kind == "map":
            _load_phi(cfg, "file")
        else:
            _load_hom(cfg, "file")
    except InvalidInput as exc:
        print(_dumps(exc.verdict()), file=out)
        return EXIT_INVALID
    print(_dumps({"valid": True}), file=out)
    return EXIT_OK


def cmd_dual(cfg, out) -> int:
    if cfg.kind == "poset":
        lat = ideal_lattice(_load_poset(cfg, "file"), cfg.max_lattice)
        print(_dumps(poset_to_obj(lat.order)), file=out)
    else:
        print(_dumps(poset_to_obj(join_irreducibles(_load_lattice(cfg, "file")))), file=out)
    return EXIT_OK


def cmd_dualmap(cfg, out) -> int:
    loaded = _load_either_side(cfg)
    if isinstance(loaded, MonotoneMap):
        hom = hom_from_dual(loaded, max_size=cfg.max_lattice)
        print(_dumps({"lattice": poset_to_obj(hom.domain.order), "hom": map_to_obj(hom.table)}), file=out)
    else:
        # A lattice read from an order has its join-irreducibles as ideal base.
        phi = dual_map(loaded)
        print(_dumps({"poset": poset_to_obj(phi.domain), "map": map_to_obj(phi.table)}), file=out)
    return EXIT_OK


def cmd_fixpoints(cfg, out) -> int:
    loaded = _load_either_side(cfg)
    if isinstance(loaded, MonotoneMap):
        if not loaded.is_endo():
            raise UsageError("fix-points need a self-map: codomain must equal domain")
        phi = loaded
        # Each name encoded once, as json.dumps encodes a string under
        # ensure_ascii, so every line matches _dumps of the member list.
        enc = list(map(encode_basestring_ascii, phi.domain.elements))
        line = lambda mask: "[" + ",".join(select(enc, mask)) + "]\n"
    else:
        if not loaded.is_endo():
            raise UsageError("fix-points need an endomorphism: codomain must equal domain")
        # A lattice read from an order has its join-irreducibles J as ideal
        # base: the dual a hom carries maps J to itself, and a fixed ideal
        # of J is the ideal of a fixed element.
        phi, lat = loaded.dual, loaded.domain
        line = lambda mask: encode_basestring_ascii(lat.elements[lat.ideal_index(mask)]) + "\n"
    fx = fixpoint_mod.fixpoints_via_duality(phi)
    if cfg.mode == "list":
        for member in fx.iter_members():
            out.write(line(member.mask))
    elif cfg.mode == "count":
        out.write(_decimal(fx.count()) + "\n")
    else:
        out.write(_quotient_json(fx.quotient) + "\n")
    return EXIT_OK


def _decimal(count: int) -> str:
    """``str(count)`` past the int-to-str digit limit of Python 3.11+
    (4,300 digits by default): lifted for one conversion, then restored."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(count)
    sys.set_int_max_str_digits(0)
    try:
        return str(count)
    finally:
        sys.set_int_max_str_digits(limit)


def _quotient_json(quo) -> str:
    """``_dumps(quotient_to_obj(quo))``, joined from names encoded
    once, as json.dumps encodes a string under ensure_ascii: the class
    names and their members, which partition the base, and the covers of
    the class order from its upper cover masks.  The classes come in name
    order, as sort_keys lists them."""
    names, classes, order, _ = quo._naming()
    names = list(map(encode_basestring_ascii, names))
    classes = ",".join([
        name + ":[" + ",".join(map(encode_basestring_ascii, members)) + "]"
        for name, members in zip(names, classes)
    ])
    leq = []
    for lo, row in zip(names, _cover_masks(order)):
        while row:
            low = row & -row
            leq.append(f"[{lo},{names[low.bit_length() - 1]}]")
            row ^= low
    return '{"classes":{' + classes + '},"leq":[' + ",".join(leq) + "]}"


def cmd_compare(cfg, out) -> int:
    phi = _load_phi(cfg)
    base = phi.domain

    coequalizer = fixpoint_mod.coequalizer_general(phi)
    try:
        fixpoint_mod._check_components(phi, coequalizer)
        components_view = quotient_to_obj(coequalizer)
        quotients_agree = True
    except QuotientNotAntisymmetric as exc:
        components_view = exc.verdict()
        quotients_agree = False

    lat = ideal_lattice(base, cfg.max_lattice)
    hom = hom_from_dual(phi, lat, lat)
    brute = sorted(fixpoint_mod.bruteforce_fixpoints(hom))
    dual = sorted(m.name for m in fixpoint_mod.FixpointLattice(phi, coequalizer).iter_members())
    fixpoints_agree = brute == dual

    if quotients_agree and fixpoints_agree:
        print(_dumps({"agree": True, "classes": len(coequalizer), "fixpoints": len(dual)}), file=out)
        return EXIT_OK
    artifact = {
        "poset": poset_to_obj(base),
        "phi": map_to_obj(phi.table),
        "components": components_view,
        "coequalizer": quotient_to_obj(coequalizer),
        "dual_fixpoints": dual,
        "bruteforce_fixpoints": brute,
    }
    with _overwrite(cfg.artifact) as fh:
        fh.write(_dumps(artifact) + "\n")
    print(
        _dumps({"agree": False, "quotients_agree": quotients_agree, "fixpoints_agree": fixpoints_agree, "artifact": cfg.artifact}),
        file=out,
    )
    return EXIT_MISMATCH


def _esc(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_poset(poset) -> str:
    lines = ["digraph {", "  rankdir=BT;"]
    lines += [f'  "{_esc(x)}";' for x in poset.elements]
    lines += [f'  "{_esc(lo)}" -> "{_esc(hi)}";' for lo, hi in poset.covers()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_map(phi) -> str:
    # Self-loops carry no component information and are omitted.
    lines = ["graph {"]
    lines += [f'  "{_esc(x)}";' for x in phi.domain.elements]
    edges = set()
    for i, x in enumerate(phi.domain.elements):
        j = phi.image[i]
        if j != i:
            edges.add((min(i, j), max(i, j)))
    for i, j in sorted(edges):
        lines.append(f'  "{_esc(phi.domain.elements[i])}" -- "{_esc(phi.domain.elements[j])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quotient(quotient) -> str:
    lines = ["digraph {", "  rankdir=BT;", "  compound=true;"]
    names, classes, order, _ = quotient._naming()
    for ci, (name, members) in enumerate(zip(names, classes)):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="{_esc(name)}";')
        lines += [f'    "{_esc(x)}";' for x in members]
        lines.append("  }")
    for lo, row in enumerate(_cover_masks(order)):
        for hi in bits(row):
            lines.append(
                f'  "{_esc(classes[lo][0])}" -> "{_esc(classes[hi][0])}" [ltail=cluster_{lo}, lhead=cluster_{hi}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_dot(cfg, out) -> int:
    if cfg.kind == "poset":
        out.write(_dot_poset(_load_poset(cfg, "file")))
    elif cfg.kind == "lattice":
        out.write(_dot_poset(_load_lattice(cfg, "file").order))
    else:
        phi = _load_phi(cfg, "file")
        if cfg.kind == "map":
            out.write(_dot_map(phi))
        else:
            out.write(_dot_quotient(fixpoint_mod.coequalizer_general(phi)))
    return EXIT_OK


def _bench_poset(shape, n):
    if shape == "chain":
        width = len(str(n - 1))
        ids = [f"c{i:0{width}d}" for i in range(n)]
        return build_poset(ids, list(zip(ids, ids[1:])))
    if shape == "antichain":
        width = len(str(n - 1))
        return build_poset([f"a{i:0{width}d}" for i in range(n)], [])
    rows = isqrt(n)
    cols = n // rows
    wr, wc = len(str(rows - 1)), len(str(cols - 1))
    ids = {}
    for r in range(rows):
        for c in range(cols):
            ids[r, c] = f"g{r:0{wr}d}x{c:0{wc}d}"
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                pairs.append((ids[r, c], ids[r + 1, c]))
            if c + 1 < cols:
                pairs.append((ids[r, c], ids[r, c + 1]))
    return build_poset(list(ids.values()), pairs)


def _bench_table(base, map_kind):
    ids = base.elements
    if map_kind == "identity":
        return {x: x for x in ids}
    if map_kind == "collapse":
        return {x: ids[0] for x in ids}
    table = {}
    for k in range(0, len(ids) - 1, 2):
        table[ids[k]] = ids[k + 1]
        table[ids[k + 1]] = ids[k]
    if len(ids) % 2:
        table[ids[-1]] = ids[-1]
    return table


def _count_fixed_primal(base, phi, cap):
    """Brute-force count of fixed ideals: scan the whole ideal family.

    None when the base has more than ``cap`` ideals, which the exact ideal
    count decides before the scan starts.
    """
    try:
        count_ideals(base, max_count=cap)
    except SizeBoundExceeded:
        return None
    moved = [(1 << y, 1 << phi.image[y]) for y in range(len(base)) if phi.image[y] != y]
    fixed = 0
    for m in iter_ideal_masks(base):
        for ybit, imgbit in moved:
            if bool(m & imgbit) != bool(m & ybit):
                break
        else:
            fixed += 1
    return fixed


def cmd_bench(cfg, out) -> int:
    base = _bench_poset(cfg.shape, cfg.n)
    try:
        phi = is_monotone(_bench_table(base, cfg.map_kind), base, base)
    except NotMonotone:
        raise UsageError(f"--map-kind {cfg.map_kind} is not monotone on shape {cfg.shape}") from None

    report = {"shape": cfg.shape, "n": cfg.n, "elements": len(base), "map_kind": cfg.map_kind}
    t0 = time.perf_counter()
    coequalizer = fixpoint_mod.coequalizer_general(phi)
    t1 = time.perf_counter()
    try:
        fixpoint_mod._check_components(phi, coequalizer)
        quotients_agree = True
    except QuotientNotAntisymmetric:
        quotients_agree = False
    t2 = time.perf_counter()
    report["components_seconds"] = round(t2 - t1, 6)
    report["coequalizer_seconds"] = round(t1 - t0, 6)
    report["classes"] = len(coequalizer)
    report["quotients_agree"] = quotients_agree

    t3 = time.perf_counter()
    try:
        dual_count = count_ideals(coequalizer.graph, cfg.count_cap)
    except SizeBoundExceeded:
        dual_count = None
    report["dual_count_seconds"] = round(time.perf_counter() - t3, 6)
    report["dual_count"] = dual_count if dual_count is not None else "skipped (count above cap)"

    t4 = time.perf_counter()
    primal_count = _count_fixed_primal(base, phi, cfg.count_cap)
    report["primal_count_seconds"] = round(time.perf_counter() - t4, 6)
    report["primal_count"] = primal_count if primal_count is not None else "skipped (primal side infeasible)"

    if dual_count is not None and primal_count is not None:
        report["counts_agree"] = dual_count == primal_count
    print(_dumps(report), file=out)
    if not report["quotients_agree"] or report.get("counts_agree") is False:
        return EXIT_MISMATCH
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "dual": cmd_dual,
    "dualmap": cmd_dualmap,
    "fixpoints": cmd_fixpoints,
    "compare": cmd_compare,
    "dot": cmd_dot,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # -o is opened before the command runs, so an unopenable path exits 1
    # before any work.
    target = _overwrite(cfg.output) if cfg.output else nullcontext(sys.stdout)
    try:
        with target as out:
            return _COMMANDS[cfg.command](cfg, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInput as exc:
        print(_dumps(exc.verdict()), file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

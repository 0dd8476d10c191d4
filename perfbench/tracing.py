"""Traced replay: the CLI's layer calls made one by one, each inside a span.

A traced request calls the same public functions as ``dualfix.cli.main``,
in the same order, and times each call from outside; no span is opened
inside ``dualfix``.  Spans stay in memory as rows and are written out when
the run ends.  A layer's busy time is the sum of its spans' self time: the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

REQUEST = "request"

# Stages group the layers that do the same job on the two sides of the CLI,
# so that every stage does work on every workload.
STAGES = {
    "stage.validate": ("poset.is_monotone", "lattice.lattice_from_order", "lattice.is_homomorphism"),
    "stage.quotient": ("fixpoint.coequalizer_general", "duality.lift_hom", "duality.dual_map", "fixpoint.phi_components"),
    "stage.answer": ("poset.covers", "fixpoint.count", "fixpoint.iter_members", "poset.iter_ideal_masks"),
}

LAYERS = (
    "cli.parse_args",
    "jsonio.load_obj",
    "poset.build_poset",
    *STAGES["stage.validate"],
    *STAGES["stage.quotient"],
    *STAGES["stage.answer"],
    "jsonio.serialise",
    "cli.write",
)

# The layers each workload was chosen to stress; their share of the traced
# request time is reported as trace.dominant_frac.
DOMINANT = {
    "construct": ("poset.build_poset", "poset.is_monotone", "fixpoint.coequalizer_general", "poset.covers",
                  "jsonio.serialise"),
    "count": ("fixpoint.count",),
    "list": ("fixpoint.iter_members", "jsonio.serialise", "cli.write"),
    "explicit": ("lattice.lattice_from_order", "lattice.is_homomorphism", "duality.lift_hom", "duality.dual_map"),
}


def _dumps(obj):
    # The CLI's own encoding: sorted keys, no spaces.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class Spans:
    """In-memory span rows: [name, start, end, parent row, request id, outcome]."""

    def __init__(self, invalid_input):
        self.rows = []
        self._open = []
        self._invalid_input = invalid_input

    @contextmanager
    def span(self, name, rid):
        row = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, rid, "ok"]
        self.rows.append(row)
        self._open.append(len(self.rows) - 1)
        try:
            yield
        except self._invalid_input:
            row[5] = "reject"
            raise
        finally:
            row[2] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Per row: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.rows]
        for name, start, end, parent, _, _ in self.rows:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid, outcome in self.rows:
                fh.write(_dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "request": rid, "outcome": outcome}) + "\n")


def replay(dx, spans, rid, argv):
    """Serve one request through the layers under spans.

    Returns (exit code, stderr text, counters).  Invalid input gives exit 2
    and the verdict JSON, as ``cli.main`` prints it.
    """
    counters = {}
    with spans.span(REQUEST, rid):
        try:
            with spans.span("cli.parse_args", rid):
                cfg = dx.cli.parse_args(argv)
            if "lattice" in cfg.inputs:
                text = _explicit(dx, spans, rid, cfg, counters)
            else:
                text = _poset_side(dx, spans, rid, cfg, counters)
        except dx.errors.InvalidInput as exc:
            return 2, _dumps(exc.verdict()) + "\n", counters
        with spans.span("cli.write", rid):
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    counters["jsonio.bytes_out"] = len(text.encode())
    return 0, "", counters


def _poset_side(dx, spans, rid, cfg, counters):
    with spans.span("jsonio.load_obj", rid):
        poset_obj = dx.jsonio.load_obj(cfg.inputs["poset"])
    # poset_from_obj is a linear shape check followed by build_poset.
    with spans.span("poset.build_poset", rid):
        base = dx.jsonio.poset_from_obj(poset_obj)
    with spans.span("jsonio.load_obj", rid):
        table = dx.jsonio.table_from_obj(dx.jsonio.load_obj(cfg.inputs["map"]))
    with spans.span("poset.is_monotone", rid):
        phi = dx.poset.is_monotone(table, base, base)
        if not phi.is_endo():
            raise ValueError("not a self-map")
    with spans.span("fixpoint.coequalizer_general", rid):
        fx = dx.fixpoint.fixpoints_via_duality(phi)
    counters["fixpoint.classes"] = len(fx.quotient)
    if cfg.mode == "count":
        with spans.span("fixpoint.count", rid):
            n = fx.count()
        with spans.span("jsonio.serialise", rid):
            text = f"{n}\n"
        counters["fixpoint.ideals_emitted"] = n
    elif cfg.mode == "list":
        with spans.span("fixpoint.iter_members", rid):
            members = [m.members for m in fx.iter_members()]
        with spans.span("jsonio.serialise", rid):
            text = "".join(_dumps(list(m)) + "\n" for m in members)
        counters["fixpoint.ideals_emitted"] = len(members)
    else:
        quotient = fx.quotient
        with spans.span("poset.covers", rid):
            covers = quotient.class_poset.covers()
        with spans.span("jsonio.serialise", rid):
            obj = {
                "classes": {name: list(ms) for name, ms in zip(quotient.class_poset.elements, quotient.classes)},
                "leq": [list(pair) for pair in covers],
            }
            text = _dumps(obj) + "\n"
    return text


def _explicit(dx, spans, rid, cfg, counters):
    with spans.span("jsonio.load_obj", rid):
        lattice_obj = dx.jsonio.load_obj(cfg.inputs["lattice"])
    with spans.span("poset.build_poset", rid):
        order = dx.jsonio.poset_from_obj(lattice_obj)
    with spans.span("lattice.lattice_from_order", rid):
        lat = dx.lattice.lattice_from_order(order, max_size=cfg.max_lattice)
    with spans.span("jsonio.load_obj", rid):
        table = dx.jsonio.table_from_obj(dx.jsonio.load_obj(cfg.inputs["hom"]))
    with spans.span("lattice.is_homomorphism", rid):
        hom = dx.lattice.is_homomorphism(table, lat, lat)
        if not hom.is_endo():
            raise ValueError("not an endomorphism")
    with spans.span("duality.lift_hom", rid):
        base, lifted = dx.duality.lift_hom(hom, cfg.max_lattice)
    counters["lattice.join_irreducibles"] = len(base)
    with spans.span("duality.dual_map", rid):
        phi = dx.duality.dual_map(lifted)
    with spans.span("fixpoint.phi_components", rid):
        quotient = dx.fixpoint.phi_components(phi)
    counters["fixpoint.classes"] = len(quotient)
    with spans.span("poset.iter_ideal_masks", rid):
        n = sum(1 for _ in dx.poset.iter_ideal_masks(quotient.class_poset))
    with spans.span("jsonio.serialise", rid):
        text = f"{n}\n"
    counters["fixpoint.ideals_emitted"] = n
    return text

"""Checks one CLI answer against the generator's closed-form expectation.

Counts, listed members and quotient classes are compared with what
``instances`` derived from the family formulas, never with other output of
``dualfix``.  A listed answer is correct when it has the expected number of
lines, no line repeats, and every line is down-closed in the base order and
a union of whole expected classes: those are exactly the fixed ideals.
"""

from __future__ import annotations

import json


class _ListOracle:
    """Index tables of one part, built once per request."""

    def __init__(self, part):
        self.index = {x: i for i, x in enumerate(part.names)}
        self.lower = [0] * len(part.names)
        for a, b in part.covers:
            self.lower[b] |= 1 << a
        self.class_of = [0] * len(part.names)
        self.class_size = [len(c) for c in part.classes]
        for ci, members in enumerate(part.classes):
            for i in members:
                self.class_of[i] = ci


def expected_quotient(part):
    """Expected output of ``--quotient``: {class name: members}, set of leq pairs.

    A class is named ``[x]`` after its least identifier.  For every family
    in ``instances``, each covering pair of the quotient is the image of a
    base covering pair between two distinct classes, and every such image
    is a covering pair.
    """
    names = part.names
    class_of = {}
    classes = {}
    for members in part.classes:
        ids = sorted(names[i] for i in members)
        label = f"[{ids[0]}]"
        classes[label] = ids
        for i in members:
            class_of[i] = label
    leq = {(class_of[a], class_of[b]) for a, b in part.covers if class_of[a] != class_of[b]}
    return classes, leq


def check(req, rc, out_text, err_text, cache):
    """Return None when the answer is right, else a one-line reason.

    ``cache`` is a dict the caller keeps per request, so index tables are
    built once per request rather than once per call.
    """
    if req.expect == "reject":
        if rc != 2:
            return f"exit {rc}, expected 2 with {req.error}"
        try:
            verdict = json.loads(err_text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "exit 2 without a JSON verdict"
        if verdict.get("error") != req.error:
            return f"verdict {verdict.get('error')!r}, expected {req.error!r}"
        return None
    if rc != 0:
        return f"exit {rc}: {err_text.strip()[:120]}"
    if req.expect == "count":
        if out_text != f"{req.count}\n":
            return f"count {out_text.strip()[:40]!r}, expected {req.count}"
        return None
    if req.expect == "quotient":
        return _check_quotient(req.part, out_text, cache)
    return _check_list(req.part, out_text, cache)


def _check_quotient(part, text, cache):
    if "quotient" not in cache:
        cache["quotient"] = expected_quotient(part)
    classes, leq = cache["quotient"]
    try:
        obj = json.loads(text)
        got_classes = {name: sorted(members) for name, members in obj["classes"].items()}
        got_leq = [tuple(pair) for pair in obj["leq"]]
    except (ValueError, KeyError, TypeError, AttributeError):
        return "quotient output is not {classes, leq} JSON"
    if got_classes != classes:
        return f"{len(got_classes)} classes, expected {len(classes)} (or members differ)"
    if len(got_leq) != len(leq) or set(got_leq) != leq:
        return f"{len(got_leq)} class covers, expected {len(leq)} (or pairs differ)"
    return None


def _check_list(part, text, cache):
    if "list" not in cache:
        cache["list"] = _ListOracle(part)
    oracle = cache["list"]
    lines = text.splitlines()
    if len(lines) != part.count:
        return f"{len(lines)} fix-points listed, expected {part.count}"
    seen = set()
    for line in lines:
        try:
            members = json.loads(line)
            mask = 0
            for x in members:
                mask |= 1 << oracle.index[x]
        except (ValueError, KeyError, TypeError):
            return f"unreadable member {line[:60]!r}"
        if mask.bit_count() != len(members) or mask in seen:
            return f"repeated member or element in {line[:60]!r}"
        seen.add(mask)
        touched = set()
        for x in members:
            i = oracle.index[x]
            if oracle.lower[i] & ~mask:
                return f"{line[:60]!r} is not down-closed"
            touched.add(oracle.class_of[i])
        if sum(oracle.class_size[c] for c in touched) != len(members):
            return f"{line[:60]!r} splits a class, so it is not fixed"
    return None

"""JSON file formats.

Poset (also used for lattices, whose structure is always derived, never
supplied as tables)::

    {"elements": ["p", "q"], "leq": [["p", "q"]]}

``leq`` lists generating (lesser, greater) pairs; reflexive pairs are
optional.  Maps and homomorphisms::

    {"map": {"p": "q", "q": "q"}}

Malformed documents raise ParseError (a usage-level failure); documents that
parse but violate the mathematics raise the validation errors of the inner
modules.
"""

import json
from itertools import repeat

from .errors import InvalidInput
from .poset import Poset, build_poset


class ParseError(Exception):
    pass


def load_obj(path):
    """The JSON document in a file, read as text mode reads it: decoded
    strictly as UTF-8, with every newline (CRLF, CR or LF) translated to
    LF, so that the positions in a ParseError are the same."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers
        # too long to convert; a document nested too deep raises
        # RecursionError, a RuntimeError that main would report as internal
        raise ParseError(f"{path}: {exc}") from None


def poset_from_obj(obj) -> Poset:
    """The poset of a document.  One whose elements are all strings and
    whose pairs are all lists goes straight to build_poset, which unpacks
    and looks up each pair; the checks of :func:`_check_poset_obj` run,
    in document order, only on any other document or when build_poset
    refuses, so a malformed document raises the same ParseError as ever
    and any other refusal is build_poset's own."""
    elements = pairs = None
    if isinstance(obj, dict):
        elements, pairs = obj.get("elements"), obj.get("leq", [])
    if not (
        isinstance(elements, list)
        and isinstance(pairs, list)
        and all(map(isinstance, elements, repeat(str)))
        and all(map(isinstance, pairs, repeat(list)))
    ):
        _check_poset_obj(obj)
    try:
        return build_poset(elements, pairs)
    except (InvalidInput, TypeError, ValueError):
        # an unknown or duplicate element, a cycle, or a pair that does not
        # unpack or hash
        _check_poset_obj(obj)
        raise


def _check_poset_obj(obj):
    """Raise ParseError at the first malformed part of a poset document."""
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


def table_from_obj(obj) -> dict:
    if not isinstance(obj, dict):
        raise ParseError("map document must be a JSON object")
    table = obj.get("map")
    if not isinstance(table, dict):
        raise ParseError('"map" must be an object of string-to-string entries')
    if not (all(map(isinstance, table, repeat(str))) and all(map(isinstance, table.values(), repeat(str)))):
        raise ParseError('"map" must be an object of string-to-string entries')
    return table


def poset_to_obj(poset: Poset) -> dict:
    return {
        "elements": list(poset.elements),
        "leq": [list(pair) for pair in poset.covers()],
    }


def map_to_obj(table: dict) -> dict:
    return {"map": dict(sorted(table.items()))}


def quotient_to_obj(quotient) -> dict:
    return {
        "classes": {
            name: list(members)
            for name, members in zip(quotient.class_poset.elements, quotient.classes)
        },
        "leq": [list(pair) for pair in quotient.class_poset.covers()],
    }

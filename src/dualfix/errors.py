"""Exceptions raised by validation and bound checks.

Every InvalidInput subclass carries a JSON-ready payload so CLI verdicts can
report the first violation witness without string parsing.
"""


class InvalidInput(Exception):
    code = "Invalid"

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = payload

    def verdict(self):
        out = {"valid": False, "error": self.code, "message": str(self)}
        out.update(self.payload)
        return out


class DuplicateElement(InvalidInput):
    code = "DuplicateElement"

    def __init__(self, element):
        super().__init__(f"duplicate element {element!r}", witness=[element])


class UnknownElement(InvalidInput):
    code = "UnknownElement"

    def __init__(self, element, detail=None):
        msg = f"unknown element {element!r}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg, witness=[element])


class AntisymmetryViolation(InvalidInput):
    """The generating pairs close into a cycle: a preorder, not a poset."""

    code = "AntisymmetryViolation"

    def __init__(self, x, y):
        super().__init__(f"closure makes {x!r} and {y!r} mutually comparable", witness=[x, y])


class NotMonotone(InvalidInput):
    code = "NotMonotone"

    def __init__(self, x, y):
        super().__init__(f"{x!r} below {y!r} but their images are not ordered", witness=[x, y])


class NotALattice(InvalidInput):
    code = "NotALattice"

    def __init__(self, x, y, which):
        super().__init__(f"{x!r}, {y!r} have no {which}", witness=[x, y])


class NotDistributive(InvalidInput):
    code = "NotDistributive"

    def __init__(self, a, b, c):
        super().__init__(
            f"meet does not distribute over join at ({a!r}, {b!r}, {c!r})",
            witness=[a, b, c],
        )


class NotHom(InvalidInput):
    code = "NotHom"

    def __init__(self, law, *witness):
        super().__init__(f"{law} law violated at {witness}", law=law, witness=list(witness))


class QuotientNotAntisymmetric(InvalidInput):
    """The induced class relation has a 2-cycle between distinct classes."""

    code = "QuotientNotAntisymmetric"

    def __init__(self, c1, c2):
        super().__init__(f"classes {c1!r} and {c2!r} are mutually below each other", witness=[c1, c2])


class SizeBoundExceeded(InvalidInput):
    code = "SizeBoundExceeded"

    def __init__(self, bound, detail=""):
        msg = f"size bound {bound} exceeded"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg, bound=bound)

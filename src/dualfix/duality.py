"""Transport of maps between lattices and their base posets.

A homomorphism of finite distributive lattices determines a monotone map the
other way between the bases of their Birkhoff representations, and vice
versa.  Every validated lattice carries that representation, so ``dual_map``
applies to any of them directly.
"""

from __future__ import annotations

from .lattice import LatticeHom, _irreducibles, ideal_lattice, is_homomorphism
from .poset import MonotoneMap


def dual_map(hom: LatticeHom) -> MonotoneMap:
    """The monotone map dual to a lattice homomorphism.

    With P and Q the ideal bases of the domain and codomain, f acts as a map
    O(P) -> O(Q); the dual phi sends each base point y of Q to the least x
    in P with y in f(down-set of x).  Every hom carries phi as ``hom.dual``:
    ``is_homomorphism`` reads it off while validating, and it is monotone
    with no check: f(down-set of x) = phi^-1(down-set of x) is an ideal of
    Q, so if y <= y' then y is in phi^-1(down-set of phi(y')), which means
    phi(y) <= phi(y').  The other homs carry theirs by the two functor
    rules, as phi is the one map whose preimage map is f: the identity on L
    is the preimage map of the identity on L's base, and g . f sends a to
    phi_g^-1(phi_f^-1(a)), the preimage of a under phi_f . phi_g, which is
    therefore the dual of g . f.
    """
    return hom.dual


def _dual_on_irreducibles(hom: LatticeHom) -> MonotoneMap:
    """The dual of an endomorphism as a self-map of the join-irreducibles
    of its domain, named as lattice elements: base point x of the Birkhoff
    representation becomes the element whose ideal is the down-set of x.
    When the base is J already, as for a lattice read from an order, that
    is ``hom.dual`` as it is."""
    phi = dual_map(hom)
    irr, pos = _irreducibles(hom.domain)
    if irr is hom.domain.ideal_base:
        return phi
    image = [0] * len(irr)
    for x, y in enumerate(phi.image):
        image[pos[x]] = pos[y]
    return MonotoneMap(irr, irr, image)


def hom_from_dual(phi: MonotoneMap, domain_lattice=None, codomain_lattice=None, max_size=None) -> LatticeHom:
    """The ideal-lattice homomorphism induced by a monotone map.

    phi: Q -> P induces f: O(P) -> O(Q) with f(a) the preimage of a under
    phi.  Already-materialized ideal lattices of P and Q may be passed to
    avoid rebuilding them in enumeration loops; a self-map with neither
    passed builds one lattice, which is then both domain and codomain.
    """
    q, p = phi.domain, phi.codomain
    dom = domain_lattice if domain_lattice is not None else ideal_lattice(p, max_size)
    if codomain_lattice is not None:
        cod = codomain_lattice
    else:
        cod = dom if q is p else ideal_lattice(q, max_size)
    if dom.ideal_base != p or cod.ideal_base != q:
        raise ValueError("lattices must be the ideal lattices of the map's codomain and domain")
    nq = len(q)
    table = {}
    for i, a in enumerate(dom.elements):
        amask = dom.element_masks[i]
        pre = 0
        for y in range(nq):
            if amask >> phi.image[y] & 1:
                pre |= 1 << y
        table[a] = cod.elements[cod.ideal_index(pre)]
    return is_homomorphism(table, dom, cod)


def lift_hom(hom: LatticeHom, max_size=None):
    """Rename an explicit endomorphism into ideal-lattice form.

    Returns (base, lifted) where base is the poset of join-irreducibles of
    the domain and lifted is the conjugate of ``hom`` by the bijection eta
    that sends each element to the irreducibles below it, validated on the
    ideal lattice of base.  The stored masks are eta up to the relabelling
    of the base onto the irreducibles, and f acts on them as the preimage
    map of its dual phi; so eta(f(a)) is the preimage of eta(a) under phi
    relabelled onto base, and lifted is the hom that map induces.
    ``dual_map`` applies to ``hom`` directly; this is for callers that want
    the ideal-lattice form itself.
    """
    if not hom.is_endo():
        raise ValueError("lift_hom expects an endomorphism")
    phi = _dual_on_irreducibles(hom)
    lifted = ideal_lattice(phi.domain, max_size)
    return phi.domain, hom_from_dual(phi, lifted, lifted)

"""The golden conjugated module ^(A,id)H4B, spelled out by hand, kept for
tests only.

It is the independent oracle that conjugate_yd is compared against: its
tables are written out row by row from the H4B formula, not computed
through conjugate_yd.
"""

from homyd.exactlin import table_map
from homyd.h4_library import BASIS, _G, _GX, _I, _X, _table_action, build_h4, h4_automorphism
from homyd.hom_algebra import AutPair, identity_automorphism
from homyd.yd_modules import YDModuleData


def build_twisted_h4b(p, h=None):
    """Golden conjugated module: H4B twisted by the pair (A, id).

    The action divides the x / gx rows of H4B by c', the coaction picks up
    c' on the second comultiplication legs of x and gx, and the component
    tag stays (id, B).
    """
    c, cp, cpp = p.c, p.c_prime, p.c_double_prime
    action = _table_action(
        c,
        c * (1 - cpp) / cp,
        c * (1 + cpp) / cp,
        c * (cpp - 1) / cp,
        -c * (1 + cpp) / cp,
    )
    cinv = 1 / c
    coaction = table_map((4, 4, 4), {
        (_I, _I, _I): 1, (_G, _G, _G): 1,
        (_X, _X, _I): cinv, (_X, _G, _X): cinv * cp,
        (_GX, _GX, _G): cinv, (_GX, _I, _GX): cinv * cp,
    }, out_legs=2)
    if h is None:
        h = build_h4(c)
    pair = AutPair(identity_automorphism(4), h4_automorphism(cpp))
    return YDModuleData(h, action, coaction, h.alpha, pair, basis=BASIS, label="^(A,id)H4B")

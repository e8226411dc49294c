"""Each law the tcat certificates read from a suite turns off exactly the
certificates whose conjunct names it.

t_category._laws reads laws by id from the suites that state them:
module-twist, module-assoc and module-unit from check_hom_module,
eq-1.8-coact, eq-1.7 and eq-1.8-counit from check_hom_comodule, eq-1.1,
alpha-mult, eq-1.2-left, eq-1.2-right and eq-1.3 from check_hom_algebra,
eq-1.4, eq-1.5, counit-left and counit-right from check_hom_coalgebra,
antipode-left, antipode-right and antipode-alpha from check_antipode, and
aut-comul, aut-mult, aut-unit, aut-counit, aut-antipode and aut-alpha from
check_automorphism; kappa, which it computes, is no suite's id.  Here each
suite is replaced by one whose report fails that id alone, for one module,
one component value (of a module's pair or of a conjugating pair) or H,
and the certificates of h4.alg, which all hold, must lose exactly the keys
that CONJUNCTS, the conjunct table of _certificates,
_braiding_certificates, _unit_certificates, _functor_certificates and
_conjugate_certificates, names for the law: dropping a conjunct from any
of them, or reading the wrong id, fails here.
"""

import pytest

import homyd.t_category as tc
from homyd.reports import CheckItem
from homyd.yd_modules import check_yd
from test_assoc_certificate import shipped_text
from test_certificate_reference import POINTS, certificates, file_objects, flat

#: law id -> (the suite that states it, and per certificate slot it gates,
#: (family, slot, roles)): for a module law the key positions whose module
#: it is read of, for a law of a component value the (key position, "a" or
#: "b") whose pair's automorphism it is read of, key position "p" standing
#: for the conjugating pair, and None for a law of H, which every key of
#: the slot reads.  The triple slots are tensor-assoc's module and comodule
#: halves, eq-3.4 and eq-3.5, keyed by (M, N, P); the braiding slots are
#: tensor-component, braiding-module-map, braiding-comodule-map,
#: braiding-morphism, braiding-inverse-left and braiding-inverse-right,
#: keyed by the pair (M, N); the unit slots are unit-left-module,
#: unit-left-comodule, unit-right-module and unit-right-comodule, keyed by
#: the module N alone; functor-tensor, keyed by (p, M, N), and
#: conjugate-component, keyed by (p, N), have one slot, None.
CONJUNCTS = {
    "module-twist": ("check_hom_module", [("triple", 0, (0, 2)), ("triple", 3, (0,)), ("braiding", 1, (0, 1)),
                                          ("braiding", 3, (0,)), ("braiding", 4, (0,)), ("braiding", 5, (0,)),
                                          ("unit", 0, (0,)), ("unit", 2, (0,))]),
    "module-assoc": ("check_hom_module", [("triple", 3, (0,)), ("braiding", 1, (0,)), ("braiding", 4, (0,)),
                                          ("braiding", 5, (0,))]),
    "module-unit": ("check_hom_module", [("braiding", 4, (0,)), ("braiding", 5, (0,))]),
    "eq-1.8-coact": ("check_hom_comodule", [("triple", 1, (0, 2)), ("triple", 2, (2,)), ("braiding", 2, (0, 1)),
                                            ("braiding", 3, (1,)), ("braiding", 4, (1,)), ("braiding", 5, (1,)),
                                            ("unit", 1, (0,)), ("unit", 3, (0,))]),
    "eq-1.7": ("check_hom_comodule", [("triple", 2, (2,)), ("braiding", 2, (1,)), ("braiding", 4, (1,)),
                                      ("braiding", 5, (1,))]),
    "eq-1.8-counit": ("check_hom_comodule", [("braiding", 4, (1,)), ("braiding", 5, (1,))]),
    "eq-1.1": ("check_hom_algebra", [("triple", 1, None), ("braiding", 0, None), ("braiding", 1, None),
                                     ("braiding", 2, None)]),
    "alpha-mult": ("check_hom_algebra", [("triple", 3, None), ("braiding", 0, None), ("braiding", 1, None),
                                         ("braiding", 2, None)]),
    "eq-1.2-left": ("check_hom_algebra", [("braiding", 0, None), ("unit", 3, None)]),
    "eq-1.2-right": ("check_hom_algebra", [("braiding", 0, None), ("braiding", 1, None), ("braiding", 2, None),
                                           ("unit", 1, None)]),
    "eq-1.3": ("check_hom_algebra", [("braiding", 0, None), ("braiding", 1, None)]),
    "eq-1.4": ("check_hom_coalgebra", [("triple", 0, None), ("braiding", 0, None)]),
    "eq-1.5": ("check_hom_coalgebra", [("triple", 2, None), ("braiding", 0, None), ("braiding", 2, None)]),
    "counit-left": ("check_hom_coalgebra", [("unit", 0, None)]),
    "counit-right": ("check_hom_coalgebra", [("unit", 2, None)]),
    "antipode-left": ("check_antipode", [("braiding", 4, None)]),
    "antipode-right": ("check_antipode", [("braiding", 5, None)]),
    "antipode-alpha": ("check_antipode", [("braiding", 0, None), ("braiding", 4, None), ("braiding", 5, None)]),
    "aut-comul": ("check_automorphism", [("triple", 0, ((0, "b"), (1, "a"), (2, "a"))),
                                         ("triple", 2, ((0, "b"), (1, "a"), (1, "b"))),
                                         ("braiding", 0, ((0, "b"), (1, "a"))), ("braiding", 1, ((0, "b"), (1, "a"))),
                                         ("braiding", 2, ((0, "b"),)),
                                         ("functor", None, (("p", "a"), ("p", "b"), (1, "a"), (2, "a"))),
                                         ("conjugate", None, (("p", "a"), ("p", "b"), (1, "a")))]),
    "aut-mult": ("check_automorphism", [("triple", 3, ((0, "b"),)), ("braiding", 0, ((0, "b"), (1, "a"))),
                                        ("braiding", 1, ((0, "b"), (1, "a"))), ("braiding", 2, ((0, "a"), (0, "b"))),
                                        ("braiding", 4, ((0, "b"),)), ("braiding", 5, ((0, "b"),)),
                                        ("functor", None, (("p", "a"), ("p", "b"))),
                                        ("conjugate", None, (("p", "a"), ("p", "b")))]),
    "aut-unit": ("check_automorphism", [("braiding", 0, ((0, "b"), (1, "a"))), ("braiding", 1, ((1, "a"),)),
                                        ("braiding", 2, ((0, "a"), (0, "b"))), ("braiding", 4, ((0, "b"),)),
                                        ("braiding", 5, ((0, "b"),))]),
    "aut-counit": ("check_automorphism", [("unit", 0, ((0, "a"),)), ("unit", 2, ((0, "b"),))]),
    "aut-antipode": ("check_automorphism", [("braiding", 0, ((0, "b"), (1, "a"))),
                                            ("braiding", 1, ((0, "b"), (1, "a"))), ("braiding", 2, ((0, "b"),)),
                                            ("conjugate", None, (("p", "a"), ("p", "b"), (1, "a")))]),
    "aut-alpha": ("check_automorphism", [("triple", 0, ((0, "b"), (1, "a"), (1, "b"), (2, "a"))),
                                         ("braiding", 0, ((0, "a"), (0, "b"), (1, "a"), (1, "b"))),
                                         ("braiding", 1, ((0, "b"), (1, "a"), (1, "b"))),
                                         ("braiding", 2, ((0, "a"), (0, "b"))), ("braiding", 3, ((0, "b"),)),
                                         ("braiding", 4, ((0, "b"),)), ("braiding", 5, ((0, "b"),)),
                                         ("conjugate", None, (("p", "a"), ("p", "b"), (1, "a")))]),
}


def failing(suite, law, chosen):
    """suite, with law failing in the report of each argument that chosen
    picks and every other item as it is."""
    def patched(*args):
        rep = suite(*args)
        if chosen(args[-1]):
            assert law in [item.identity for item in rep.items]
            rep.items = [CheckItem(item.identity, item.law, item.passed and item.identity != law)
                         for item in rep.items]
        return rep
    return patched


def targets(suite, modules, pairs):
    """(label, chosen, reads) for each module, component value or H that a
    law of suite is read of: chosen picks its argument of suite, and
    reads(key, roles) tells whether a key reads it in one of roles."""
    if suite in ("check_hom_algebra", "check_hom_coalgebra", "check_antipode"):
        yield "H", lambda _: True, lambda key, roles: True
    elif suite == "check_automorphism":
        values = []
        for aut in (a for pair in [m.pair for m in modules] + pairs for a in (pair.a, pair.b)):
            if aut not in values:
                values.append(aut)

        def pair(key, r):
            return pairs[key[0]] if r == "p" else modules[key[r]].pair

        for v in values:
            yield v, v.__eq__, lambda key, roles, v=v: any(getattr(pair(key, r), side) == v for r, side in roles)
    else:
        for t, m in enumerate(modules):
            yield m.name, lambda x, m=m: x is m, lambda key, roles, t=t: any(key[r] == t for r in roles)


@pytest.mark.parametrize("point", POINTS)
def test_each_law_turns_off_exactly_the_certificates_that_name_it(monkeypatch, point):
    h, modules, pairs = file_objects(shipped_text(point))
    member = [check_yd(m).ok() for m in modules]
    base = flat(certificates(h, modules, pairs, member))
    assert all(base.values())
    for law, (suite, conjuncts) in CONJUNCTS.items():
        for label, chosen, reads in targets(suite, modules, pairs):
            with monkeypatch.context() as patch:
                patch.setattr(tc, suite, failing(getattr(tc, suite), law, chosen))
                got = flat(certificates(h, modules, pairs, member))
            want = {(family, key, slot) for family, slot, roles in conjuncts
                    for (f, key, s) in base if (f, s) == (family, slot) and (roles is None or reads(key, roles))}
            assert want and {key for key, held in got.items() if not held} == want, (law, label)

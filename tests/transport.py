"""Transport of a resolved definition file to a dense basis, kept for tests
only.

Every structure map is conjugated by a seeded dense invertible P on each
Hopf section's carrier and one Q per Yetter-Drinfeld module:
mul' = P mul (P^-1 (x) P^-1), comul' = (P (x) P) comul P^-1,
act' = Q act (P^-1 (x) Q^-1), coact' = (Q (x) P) coact Q^-1, mu' = Q mu Q^-1
and A' = P A P^-1 (likewise the unit, counit, antipode and twist).  The laws
are basis-free, so every verdict on the transport equals the original's;
its maps are dense where the originals are monomial, so they take kernel
paths the shipped files barely reach.
"""

import random

from homyd.defformat import ResolvedFile, _over_name
from homyd.exactlin import LinearMap, SingularMap, invert, kron, rat
from homyd.hom_algebra import AutPair, HomHopfAlgebraData, HopfAutomorphism
from homyd.yd_modules import YDModuleData


def dense_invertible(rng, n):
    """(P, P^-1) for a seeded n x n P with every entry in {-2..2}/{1, 2}."""
    while True:
        p = LinearMap(n, n, [rat(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n * n)])
        try:
            return p, invert(p)
        except SingularMap:
            pass


def transport(rf, seed):
    """The hopf, ydmodule and autpair sections of the resolved file rf, each
    conjugated as above; one P per hopf section, one Q per module."""
    rng = random.Random(seed)
    out, over = ResolvedFile(), {}
    out.params, out.sections = rf.params, rf.sections

    def moved(pair, p, pi):
        a, b = (HopfAutomorphism(p @ aut.matrix @ pi) for aut in (pair.a, pair.b))
        return AutPair(a, b, label=pair.name)

    for name, (kind, obj) in rf.objects.items():
        if kind == "hopf":
            p, pi = dense_invertible(rng, obj.dim)
            alg, coa = obj.algebra, obj.coalgebra
            new = HomHopfAlgebraData.from_maps(
                obj.basis, p @ alg.mul @ kron(pi, pi), p @ alg.unit, kron(p, p) @ coa.comul @ pi,
                coa.counit @ pi, p @ obj.antipode @ pi, p @ obj.alpha @ pi)
            over[name] = new, p, pi
        else:
            h, p, pi = over[_over_name(rf.sections[name], None)]
            if kind == "autpair":
                new = moved(obj, p, pi)
            elif kind == "ydmodule":
                q, qi = dense_invertible(rng, obj.dim)
                new = YDModuleData(h, q @ obj.action @ kron(pi, qi), kron(q, p) @ obj.coaction @ qi,
                                   q @ obj.mu @ qi, moved(obj.pair, p, pi), basis=obj.basis, label=obj.name)
            else:
                raise ValueError("cannot transport a %s section" % kind)
        out.objects[name] = (kind, new)
    return out

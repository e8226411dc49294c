"""The loop builders of the crossed-category objects, kept for tests only.

These are the tensor product, conjugation, braiding and inverse braiding as
they were first written: loops over basis indices that assemble each
structure tensor from dense coordinate vectors and the per-term views
``comul_terms`` / ``coact_terms`` below.  The library builds the same objects
as composites of the structure maps with the sparse kernel; the tests require
both to agree entry for entry.
"""

from types import SimpleNamespace

from homyd.exactlin import LinearMap, ZERO, add_scaled, kron, table_map, tensor_vec
from homyd.t_category import group_inv, group_mul
from homyd.yd_modules import YDModuleData, act_vv


def comul_terms(h, k):
    """Nonzero (i, j, coefficient) terms of comul(e_k), read from column k
    of the stored comultiplication map."""
    d = h.dim
    return [(t // d, t % d, w) for t, w in enumerate(h.coalgebra.comul.column(k)) if w]


def coact_terms(comodule, k):
    """Nonzero terms of the coaction of f_k, read from column k of the
    stored coaction map.  Right side: (p, j, coefficient) with p the carrier
    leg.  Left side: (i, p, coefficient) with i the algebra leg."""
    inner = comodule.over.dim if comodule.side == "right" else comodule.dim
    return [(t // inner, t % inner, w) for t, w in enumerate(comodule.coaction.column(k)) if w]


def tensor_yd(m, n, label=None):
    """M (x) N with action h.(x (x) y) = C(h1).x (x) C^-1 B C(h2).y and
    coaction (x0 (x) y0) (x) y1 x1, placed in component pair(M) * pair(N)."""
    if m.over is not n.over and not m.over.equal_tables(n.over):
        raise ValueError("tensor factors live over different algebras")
    h = m.over
    d = h.dim
    dm, dn = m.dim, n.dim
    dim = dm * dn
    c_mat = n.pair_a.matrix
    cbc = n.pair_a.inverse @ m.pair_b.matrix @ n.pair_a.matrix
    m_action, n_action = m.action, n.action

    act_entries = {}
    for hk in range(d):
        terms = comul_terms(h, hk)
        for i in range(dm):
            for j in range(dn):
                out = [ZERO] * dim
                for h1, h2, w in terms:
                    mv = act_vv(m_action, c_mat.column(h1), LinearMap.identity(dm).column(i))
                    nv = act_vv(n_action, cbc.column(h2), LinearMap.identity(dn).column(j))
                    add_scaled(out, tensor_vec(mv, nv), w)
                for t, v in enumerate(out):
                    if v:
                        act_entries[(hk, i * dn + j, t)] = v
    action = table_map((d, dim, dim), act_entries, out_legs=1)

    coact_entries = {}
    mul = h.algebra.mul
    for i in range(dm):
        for j in range(dn):
            src = i * dn + j
            for p, a, w in coact_terms(m.comodule, i):
                for q, b, w2 in coact_terms(n.comodule, j):
                    hv = mul.column(b * d + a)
                    tgt = p * dn + q
                    for t, v in enumerate(hv):
                        if v:
                            key = (src, tgt, t)
                            coact_entries[key] = coact_entries.get(key, ZERO) + w * w2 * v
    coaction = table_map((dim, dim, d), coact_entries, out_legs=2)

    basis = tuple("%s(x)%s" % (a, b) for a in m.basis for b in n.basis)
    return YDModuleData(h, action, coaction, kron(m.mu, n.mu), group_mul(m.pair, n.pair),
                        basis=basis, label=label or "%s(x)%s" % (m.name, n.name))


def conjugate_yd(p, n, label=None):
    """The conjugation functor on objects: same carrier, action routed
    through C^-1 B C A^-1, coaction leg twisted by A B^-1, component moved
    to p * pair(N) * p^-1."""
    h = n.over
    d = h.dim
    dn = n.dim
    phi = n.pair_a.inverse @ p.b.matrix @ n.pair_a.matrix @ p.a.inverse
    twist = p.a.matrix @ p.b.inverse
    n_action = n.action

    act_entries = {}
    for hk in range(d):
        hv = phi.column(hk)
        for j in range(dn):
            out = act_vv(n_action, hv, LinearMap.identity(dn).column(j))
            for t, v in enumerate(out):
                if v:
                    act_entries[(hk, j, t)] = v
    action = table_map((d, dn, dn), act_entries, out_legs=1)

    coact_entries = {}
    for j in range(dn):
        for q, a, w in coact_terms(n.comodule, j):
            for t, v in enumerate(twist.column(a)):
                if v:
                    key = (j, q, t)
                    coact_entries[key] = coact_entries.get(key, ZERO) + w * v
    coaction = table_map((dn, dn, d), coact_entries, out_legs=2)

    pair = group_mul(group_mul(p, n.pair), group_inv(p))
    return YDModuleData(h, action, coaction, n.mu, pair,
                        basis=n.basis, label=label or "^%s%s" % (p.name, n.name))


def braiding(m, n):
    """eq-3.3: c(x (x) y) = nu(y0) (x) B^-1(y1) . mu^-1(x), with B from M's
    component pair and the action being M's; returned with its source and
    its loop-built target (^M N, M)."""
    dm, dn = m.dim, n.dim
    binv = m.pair_b.inverse
    m_action = m.action
    cols = []
    for i in range(dm):
        mi = m.mu_inv.column(i)
        for j in range(dn):
            out = [ZERO] * (dn * dm)
            for p, a, w in coact_terms(n.comodule, j):
                nv = n.mu.column(p)
                mv = act_vv(m_action, binv.column(a), mi)
                add_scaled(out, tensor_vec(nv, mv), w)
            cols.append(out)
    target_first = conjugate_yd(m.pair, n)
    return SimpleNamespace(source=(m, n), target=(target_first, m), matrix=LinearMap.from_cols(cols))


def braiding_inverse(b):
    """lemma-3.6: c^-1(y (x) x) = B^-1(S(y1)) . mu^-1(x) (x) nu(y0)."""
    m, n = b.source
    dm, dn = m.dim, n.dim
    h = m.over
    binvs = m.pair_b.inverse @ h.antipode
    m_action = m.action
    cols = []
    for j in range(dn):
        terms = coact_terms(n.comodule, j)
        for i in range(dm):
            mi = m.mu_inv.column(i)
            out = [ZERO] * (dm * dn)
            for p, a, w in terms:
                mv = act_vv(m_action, binvs.column(a), mi)
                add_scaled(out, tensor_vec(mv, n.mu.column(p)), w)
            cols.append(out)
    return LinearMap.from_cols(cols)

"""The crossed-group structure on twisted Yetter-Drinfeld modules: tensor
products, conjugation functors, braidings and the full identity suite.

The index group is G = Aut x Aut with the twisted product

    (A, B) * (C, D) = (AC, D C^-1 B C),   unit (id, id),
    (A, B)^-1 = (A^-1, A B^-1 A^-1).

A module tagged (A, B) tensored with one tagged (C, D) lands in the
component of the *-product; conjugating by p moves a module to the
component p * (C, D) * p^-1.  The braiding

    c_{M,N}(m (x) n) = nu(n0) (x) B^-1(n1) . mu^-1(m)            (eq-3.3)

crosses from M (x) N to (conjugated N) (x) M, with inverse

    c^-1(n (x) m) = B^-1(S(n1)) . mu^-1(m) (x) nu(n0).           (lemma-3.6)

Each object is a composite of the stored structure maps built with @, kron
and permute, as the laws in hom_algebra and yd_modules are.  "Equality of
objects" in the functor identities below always means equality of
structure maps on the flattened carrier, the strongest checkable reading.

Every object built here is one YDModuleData on its maps, twist and
component, which inverts its twist once, in closed form for the diagonal
twists of h4.alg and their tensor products; G inverts no matrix: its
elements are the AutPairs of hom_algebra, whose products and inverses carry
their inverses, and an object's pair is read as m.pair.

Tensor products and braidings contain pieces that depend on one factor X
only.  X builds each of them once, when first read, and keeps it
(YDModuleData): tensor_act = act_X flip when X is the left tensor factor,
tensor_coact = (id (x) mul)(rho_X (x) id) flip and tensor_comul = (C (x)
id) comul (C from X's pair) when it is the right one, braid_act = act_X
(B^-1 (x) mu^-1) when it is the braiding's first factor, braid_coact = (mu
(x) id) rho_X when it is the second, and inverse_act = act_X (B^-1 S (x)
mu^-1) when it is the first factor of an inverse braiding.  Each twist
rides on the one-object piece it meets, by the interchange law (f (x)
g)(h (x) k) = fh (x) gk: nu on rho_N rather than nu (x) act_M, and C on
the comultiplication rather than C (x) act_N (...), so no twist is
Kronecker-multiplied with a piece that depends on both factors.

Each formula has one function: tensor_yd (with _tensor_maps, its maps, which
the twisted associativity check shares), conjugate_yd, braiding,
braiding_inverse and the checks.  check_t_category keeps each object it
builds by position, for the call only, and builds it when first read: each
conjugate ^pN, pair tensor M (x) N, conjugate ^MN and braiding target ^MN
(x) M, and each pair braiding c_{M,N}, a BraidingMap whose matrix braiding
builds when first read.  Its certificates read no object, and the checks
read an object, a braiding matrix, its inverse or a triple braiding only
where a certificate fails; check_unit_constraints builds the unit tensors 1
(x) N and N (x) 1 only there too.  Of its inputs, only the modules' own
pieces outlive it.

Each certificate below is a conjunction of laws that the suites state,
read by id (_laws): of each module, by position (yd-member, module-twist,
module-assoc, eq-1.8-coact, eq-1.7, ...); of each component automorphism
of a module or a pair, which check_t_category numbers by == (_Components)
and checks once per distinct value, so modules and pairs that share a
value share its laws; and of H.  One identity of maps on H, kappa below,
is computed, once per call.  For a map F that is bijective with an exact
stored inverse, as check_automorphism requires before it states any other
law, F^-1 is a coalgebra map, multiplicative or commutes with alpha or S
wherever F is, and the words of G below, which cancel only F F^-1 and F^-1
F, hold as identities of matrices.

tensor-assoc(M, N, P) asks a = mu_M (x) id (x) mu_P^-1 to intertwine the
actions, and the coactions, of (MN)P and M(NP).  With X in (A_X, B_X),
phi_{X,Y} = A_Y^-1 B_X A_Y and g_{X,Y} = (A_Y (x) phi_{X,Y}) comul, each
triple action is act_M (x) act_N (x) act_P on a leg permutation of delta (x)
id, delta_L = (g_{M,N} A_P (x) phi_{MN,P}) comul and delta_R = (A_{NP} (x)
g_{N,P} phi_{M,NP}) comul.  Where mu(h.m) = alpha(h).mu(m) for M and P, a
passes the actions as alpha (x) id (x) alpha^-1, so delta_R = (alpha (x) id
(x) alpha^-1) delta_L proves the module half.  That identity is not
computed.  Where B_M, A_N and A_P are coalgebra maps (aut-comul), so is
phi_{M,NP}, and delta_R = (A_N A_P (x) A_P phi_{M,NP} (x) phi_{N,P}
phi_{M,NP}) (id (x) comul) comul and delta_L = (A_N A_P (x) phi_{M,N} A_P
(x) phi_{MN,P}) (comul (x) id) comul.  The leg words agree, A_P phi_{M,NP} =
phi_{M,N} A_P and, as B_{MN} = B_N A_N^-1 B_M A_N, phi_{N,P} phi_{M,NP} =
phi_{MN,P}.  Hom-coassociativity (eq-1.4) gives (id (x) comul) comul =
(alpha (x) id (x) alpha^-1)(comul (x) id) comul, and alpha and alpha^-1 pass
A_N A_P and phi_{MN,P} where B_M, A_N, B_N and A_P commute with alpha
(aut-alpha).  So module-twist of M and of P, eq-1.4, aut-comul of B_M, A_N
and A_P, and aut-alpha of B_M, A_N, B_N and A_P prove the module half.  The
coactions end in z1(y1 x1) and (z1 y1)x1; where rho mu = (mu (x) alpha) rho
for M and P, a turns the second into (alpha^-1(z1) y1) alpha(x1), so mul (id
(x) mul) = mul (mul (alpha^-1 (x) id) (x) alpha) (eq-1.1) proves the
comodule half.  A holding certificate proves the item, so the full
comparison holds too; only a triple whose certificate fails builds both
triple tensors and compares a composed with each.  Both bracketings lie in
one component with one twist, by associativity of kron and, for exact
inverses, of G, so the item checks only the intertwining.

The hexagons are decided the same way, per equation.  On x (x) y (x) z,
with w = mu_P(z) and k = B_{MN}^-1(w1), the left side of eq-3.4 is w0 (x)
A_N(k1).mu_M^-2(x) (x) mu_N(phi_{M,N}(k2).mu_N^-1(y)), and with Q = B_M^-1
A_N B_N^-1 the right side is mu_P^2(z00) (x) Q alpha(z01).mu_M^-2(x) (x)
mu_N(B_N^-1(z1).mu_N^-1(y)), by rho mu = (mu (x) alpha) rho for P, which
also makes w0 (x) k = mu_P(z0) (x) f(z1) for f = B_{MN}^-1 alpha.  The
stored inverses are exact and B_{MN}^-1 = A_N^-1 B_M^-1 A_N B_N^-1
(group_mul), so A_N f = Q alpha and phi_{M,N} f = B_N^-1 alpha as
matrices.  Where f is a coalgebra map, comul f = (f (x) f) comul, the two
sides are then one map applied to mu_P(z0) (x) z11 (x) alpha(z12) and to
mu_P^2(z00) (x) z01 (x) z1, which eq-1.7 for P, mu^-1(z0) (x) comul(z1) =
rho(z0) (x) alpha^-1(z1), equates after mu_P^2 (x) id (x) alpha.  f is a
coalgebra map where B_M, A_N and B_N are (aut-comul), so that B_{MN}^-1 is,
and comul alpha = (alpha (x) alpha) comul (eq-1.5), so eq-1.8-coact and
eq-1.7 of P, eq-1.5 and aut-comul of B_M, A_N and B_N prove eq-3.4.  With
z' = mu_P^-1(z), the two sides of eq-3.5 are mu_N^2(y0) (x) mu_P(z'0) (x)
mu_M^-1(B_M^-1(z'1 y1).x) and mu_N^2(y0) (x) mu_P(z'0) (x)
B_M^-1(z'1).mu_M^-1(B_M^-1(y1).mu_M^-1(x)), so M's braid law mu_M^-1
act_M (B_M^-1 mul (x) id) = act_M (B_M^-1 (x) mu_M^-1 braid_act_M) on
H (x) H (x) M proves it.  The braid law is not computed.  With mu = mu_M
and B = B_M, module-twist, read as mu^-1(a.m) = alpha^-1(a).mu^-1(m), and
B^-1 multiplicative (aut-mult of B, for the exact stored inverse) make its
left side on a (x) b (x) m alpha^-1(B^-1(a) B^-1(b)).mu^-1(m);
module-twist and module-assoc, a.(b.m) = (alpha^-1(a) b).mu(m), make its
right side (alpha^-1 B^-1(a) alpha^-1 B^-1(b)).mu^-1(m), and alpha(ab) =
alpha(a) alpha(b) (alpha-mult) equates the two for the exact stored
alpha^-1.  So module-twist and module-assoc of M, aut-mult of B_M and
alpha-mult prove eq-3.5.  Only an equation whose certificate fails builds
its triple braidings and runs the full matrix comparison.

The index-group items are proven, not computed.  For invertible A, ..., F
with exact stored inverses, ((A, B)(C, D))(E, F) = (ACE, F E^-1 D C^-1 B C
E) = (A, B)((C, D)(E, F)), (id, id) is a two-sided unit, and (A^-1, A B^-1
A^-1) is a two-sided inverse of (A, B), so G is a group and group-assoc,
group-unit and group-inv pass for any pairs.  Conjugation by p is then an
action of G on itself by homomorphisms: (pq)N(pq)^-1 = p(qNq^-1)p^-1 and
p(MN)p^-1 = (pMp^-1)(pNp^-1).

With p = (A, B), q = (A', B') and X in component (C, D), ^pX keeps X's
carrier and twist, lies in p(C, D)p^-1 = (A C A^-1, A B^-1 D C^-1 B C
A^-1), acts through phi_{p,X} = C^-1 B C A^-1, as act_X (phi_{p,X} (x) id),
and coacts through f_p = A B^-1, as (id (x) f_p) rho_X (conjugate_yd).  So
^(pq)N and ^p(^qN) are act_N (phi (x) id) and (id (x) f) rho_N, with
phi_{pq,N} and f_{pq}, and with phi_{q,N} phi_{p,^qN} and f_p f_q.  As pq
= (AA', B' A'^-1 B A') and C_{^qN} = A' C A'^-1,

    phi_{pq,N} = C^-1 B' A'^-1 B A' C A'^-1 A^-1
               = (C^-1 B' C A'^-1)(A' C^-1 A'^-1 B A' C A'^-1 A^-1)
               = phi_{q,N} phi_{p,^qN},
    f_{pq} = A A' A'^-1 B^-1 A' B'^-1 = f_p f_q,

and the components agree, so every functor-compose(p,q;N) passes.
c_{^pM,^pN} is c_{M,N} with its H leg run through phi_{p,M} B_{^pM}^-1 f_p
instead of B_M^-1, and for M in (C, D)

    phi_{p,M} B_{^pM}^-1 f_p = C^-1 B C A^-1 . A C^-1 B^-1 C D^-1 B A^-1 . A B^-1
                             = D^-1 = B_M^-1,

so every conjugation-invariance(p;M,N) passes.  These are identities of G,
not laws of the input; tests/test_t_category.py asserts each of them as maps
on random non-commuting pairs.

functor-tensor is decided by a certificate, as the hexagons are.  Every
tensor action is act_M (x) act_N on a leg permutation of delta (x) id, with
delta = g_{M,N}; ^p(M (x) N) acts through g_{M,N} phi_{p,MN} and ^pM (x)
^pN through (phi_{p,M} (x) phi_{p,N}) g_{^pM,^pN}, so their equality proves
the action half of functor-tensor(p;M,N).  It is not computed.  Where A_p,
B_p, A_M and A_N are coalgebra maps (aut-comul), so is phi_{p,MN} = (A_M
A_N)^-1 B_p A_M A_N A_p^-1, and the two sides are (A_N phi_{p,MN} (x)
phi_{M,N} phi_{p,MN}) comul and (phi_{p,M} A_{^pN} (x) phi_{p,N}
phi_{^pM,^pN}) comul, whose legs agree as words of G: A_N phi_{p,MN} =
phi_{p,M} A_{^pN} and phi_{M,N} phi_{p,MN} = phi_{p,N} phi_{^pM,^pN}.  The
two coactions end in f_p(y1 x1) and f_p(y1) f_p(x1), so f_p multiplicative,
which aut-mult of A_p and B_p gives, proves the coaction half; both twists
are kron(mu_M, mu_N), and the components agree, which completes the item.
So aut-mult and aut-comul of A_p and B_p and aut-comul of A_M and A_N prove
it; only an item where one fails builds ^p(M (x) N) and ^pM (x) ^pN and
compares them.

The pair items and conjugate-component are decided from certificates too.
Let M lie in (A, B), N in (C, D), and g = (C (x) C^-1 B C) comul, so that
h.(x (x) y) = g'.x (x) g''.y.  Write T_X(k, r) = (alpha(k21), (B_X(k22)
alpha^-1(r)) A_X(S^-1(k1))) for the H part of eq-2.1 in X's component
(A_X, B_X), a map H (x) H -> H (x) H: eq-2.1 for X says
that rho_X act_X is (act_X (x) id) of T_X on the legs (h, m1) of h (x)
rho_X(m).  Each certificate below names the laws it reads, and holds only
where they do.  _laws reads each by its id from the suite that states it,
exactly: a(bc) = (alpha^-1(a) b) alpha(c) is eq-1.1 precomposed with
alpha^-1 (x) id (x) id; for the exact stored S^-1, F S^-1 = S^-1 F holds
iff F S = S F (aut-antipode); eq-1.7's gamma^-1 is alpha^-1, since
HomHopfAlgebraData rejects gamma != alpha.  It computes only kappa
below, which no suite states.

tensor-component(M, N).  Where eq-2.1 holds for M and for N, rho_{MN}
act_{MN}(h (x) x (x) y), which ends in (g''.y)1 (g'.x)1, is (act_M (x)
act_N (x) id) of Phi_L on the legs (h, x1, y1) of h (x) rho_M(x) (x)
rho_N(y), where Phi_L(h, r, s) = (u_M, u_N, w_N w_M) for (u_M, w_M) =
T_M(g', r) and (u_N, w_N) = T_N(g'', s).  The right side of eq-2.1 for M (x)
N, in (AC, D phi) with phi = C^-1 B C, whose coaction ends in y1 x1, is the
same with Phi_R(h, r, s) = (g (x) id) T_{MN}(h, s r).  So yd-member of M and
of N and Phi_L = Phi_R prove the item, and Phi_L = Phi_R, which is not
computed, follows from laws that are, once: on H, Hom-associativity,
alpha(ab) = alpha(a) alpha(b), 1a = alpha(a) and lambda = rho below,
which kappa gives; per module, that M's B and N's C are bialgebra maps
(comul F = (F (x) F) comul, F(ab) = F(a) F(b), F(1) = 1) that commute
with S^-1, and that A, B, C and D commute with alpha.  For exact stored
inverses C^-1, and so phi, has C's laws, alpha^-1 is multiplicative, and
C phi = BC.

Let q = (s3 (x) s3) comul(h) with s3 = (id (x) comul) comul, so that C(h1)
and phi(h2) split into C(q1), C(q2), C(q3) and phi(q4), phi(q5), phi(q6).
As B and C commute with S^-1, u_M = alpha C(q2), w_M = (BC(q3)
alpha^-1(r)) AC(S^-1(q1)), u_N = alpha phi(q5) and w_N = (D phi(q6)
alpha^-1(s)) BC(S^-1(q4)).  Hom-associativity gives (ab)(cd) =
alpha(a)((alpha^-1(b) alpha^-1(c)) d) and b(ce) = (alpha^-1(b) c) alpha(e),
so w_N w_M = alpha(D phi(q6) alpha^-1(s)) (((alpha^-2 BC(S^-1(q4)) alpha^-1
BC(q3)) alpha^-1(r)) AC(S^-1(q1))).  BC is multiplicative and A, B, C and D
commute with alpha, so Phi_L = E (lambda (x) id (x) id) for

    E(x1, ..., x5, r, s) = (C(x2), phi(x4), (D phi(x5) s)((BC(x3) alpha^-1(r)) AC(x1))),
    lambda(h) = (S^-1(q1), alpha(q2), alpha^-2(S^-1(q4)) alpha^-1(q3), alpha(q5), alpha(q6)).

With k = alpha(h21) and rho(h) = (alpha^-1 S^-1(h1), k1, 1, k2, h22), the
first two legs of E(rho(h), r, s) are g(alpha(h21)), and BC(1) = 1 and 1a
= alpha(a) make its last (D phi(h22) s)(r alpha^-1 AC S^-1(h1)), which
Hom-associativity turns into (D phi(h22) alpha^-1(s r)) AC S^-1(h1).  So
Phi_R = E (rho (x) id (x) id), and lambda = rho, maps H -> H^(x)5, proves
Phi_L = Phi_R.

lambda = rho is not computed; kappa below and laws the suites state prove
it.  Hom-coassociativity (eq-1.4), c11 (x) c12 (x) c2 = alpha^-1(c1) (x)
c21 (x) alpha(c22), once for c = h and once for c = h2, and comul alpha =
(alpha (x) alpha) comul (eq-1.5) take lambda's legs (q1, ..., q6) to
(alpha^-1(h1), alpha^-1(h21), h221, alpha^2(h2221), alpha^2(h22221),
alpha^2(h22222)); with alpha^-2 multiplicative (alpha-mult), that makes
lambda(h) = (S^-1 alpha^-1(h1), h21, alpha^-2(z), alpha(x), alpha(y)) for
(z, x, y) = kappa_L(alpha^2(h22)).  kappa_R there gives (S^-1
alpha^-1(h1), h21, alpha^-2(1), alpha(h221), alpha(h222)) by eq-1.5, and
alpha(1) = 1 (eq-1.3), eq-1.4 for c = h2, c1 (x) alpha(c21) (x)
alpha(c22) = alpha(c11) (x) alpha(c12) (x) c2, eq-1.5 and S alpha = alpha
S (antipode-alpha) make it rho(h).  So kappa, eq-1.1, alpha-mult,
eq-1.2-left, eq-1.2-right, eq-1.3, eq-1.4, eq-1.5 and antipode-alpha prove
lambda = rho, and with the laws above, tensor-component.

conjugate-component(p;N).  ^pN acts through phi = phi_{p,N} and coacts
through f = f_p.  Where eq-2.1 holds for N, rho_{^pN}(h.y) = (id (x) f)
rho_N(phi(h).y) is u.y0 (x) f(w) for (u, w) = T_N(phi(h), y1), and the
right side of eq-2.1 for ^pN is phi(u').y0 (x) w' for (u', w') =
T_{^pN}(h, f(y1)).  So yd-member(N) and (id (x) f) T_N (phi (x) id) = (phi
(x) id) T_{^pN} (id (x) f), maps on H (x) H, prove the item.  That identity
is not computed.  Where A_p, B_p and A_N are coalgebra maps that commute
with alpha (aut-comul, aut-alpha), phi = A_N^-1 B_p A_N A_p^-1 is one, and
f = A_p B_p^-1 commutes with alpha and, where A_p and B_p are
multiplicative (aut-mult), is multiplicative, so the left side takes (k,
r) to (alpha phi(k21), (f B_N phi(k22) alpha^-1 f(r)) f A_N S^-1 phi(k1))
and the right side to (phi alpha(k21), (B_{^pN}(k22) alpha^-1 f(r))
A_{^pN} S^-1(k1)).  f B_N phi = B_{^pN} is a word of G, and f A_N S^-1 phi
= A_{^pN} S^-1 is one where S commutes with A_p, B_p and A_N
(aut-antipode).  So yd-member(N), aut-comul, aut-alpha and aut-antipode of
A_p, B_p and A_N, and aut-mult of A_p and B_p prove conjugate-component.

kappa.  tensor-component and the braiding module and comodule maps read
the contraction law kappa_L = kappa_R, maps H -> H^(x)3 with

    kappa_L(h) = (S^-1(h21) alpha^-1(h1), h221, h222),
    kappa_R(h) = (1, alpha^-2(h1), alpha^-2(h2)),

which the antipode and counit laws give, S^-1(h2) h1 = eps(h)1 after
Hom-coassociativity, as one identity that reads no counit; it is computed
once per call.  lambda = rho does not give it: on H = k[x]/(x^2) with
comul(1) = 1 (x) 1, comul(x) = x (x) 1 and S = alpha = id, every law of
check_hom_algebra, eq-1.4, eq-1.5 and lambda = rho hold while kappa and
Psi_L = Psi_R below fail, since no counit law cancels lambda's two outer
legs.

braiding-module-map(M, N).  c(x (x) y) = nu(y0) (x) B^-1(y1).mu^-1(x),
with mu = mu_M and nu = mu_N.  ^MN (x) M acts on ^MN through A(h1), where
^MN acts through C^-1 B C A^-1, and on M through A^-1 B_{^MN} A = B^-1
B_{MN}, words of G that hold as matrices for exact stored inverses.  With
(a, k) = g(h) and (u, w) = T_N(k, y1), eq-2.1 for N, mu act = act (alpha
(x) mu) for M and N (module-twist) and e.(f.x) = (alpha^-1(e) f).mu(x) for
M (module-assoc) give c(h.(x (x) y)) = alpha(u).nu(y0) (x)
(alpha^-1(B^-1 w) alpha^-1(a)).x and h.c(x (x) y) = C^-1 B C(h1).nu(y0)
(x) (alpha^-1(B^-1 B_{MN}(h2)) B^-1(y1)).x.  So those laws and Psi_L =
Psi_R, maps on H (x) H with Psi_L(h, t) = (alpha(u), alpha^-1(B^-1 w)
alpha^-1(a)) for (u, w) = T_N(k, t) and Psi_R(h, t) = (C^-1 B C(h1),
alpha^-1(B^-1 B_{MN}(h2)) B^-1(t)), prove the item.

Psi_L = Psi_R is not computed; kappa and laws the suites state prove it.
With phi = C^-1 B C, k = phi(h2) and B_{MN} = D phi, where B and C are
coalgebra maps that commute with S^-1, k's legs are phi(h21), phi(h221)
and phi(h222) and B^-1 C S^-1 phi = C S^-1.  B^-1 and alpha^-1 are
multiplicative and commute with B, C and D, so the second leg of Psi_L is
((P Q) alpha^-1 C S^-1(h21)) alpha^-1 C(h1) for P = alpha^-1 B^-1 D
phi(h222) and Q = alpha^-2 B^-1(t).  Hom-associativity, (x y) z =
alpha(x)(y alpha^-1(z)), and C multiplicative make it alpha(P Q) alpha^-1
C(S^-1(h21) alpha^-1(h1)), so Psi_L = G (kappa_L (x) id) for

    G(z, x, y, t) = (alpha^2 phi(x), alpha(alpha^-1 B^-1 D phi(y) alpha^-2 B^-1(t)) alpha^-1 C(z)),

and C(1) = 1, alpha(1) = 1 (eq-1.3), a1 = alpha(a) (eq-1.2-right) and
alpha(ab) = alpha(a) alpha(b) make G (kappa_R (x) id) = Psi_R.  So kappa,
eq-1.1, alpha-mult, eq-1.2-right and eq-1.3; aut-comul, aut-mult,
aut-antipode and aut-alpha of B; the same and aut-unit of C; and
aut-alpha of D prove Psi_L = Psi_R.

braiding-comodule-map(M, N).  ^MN (x) M coacts by y0 (x) x0 (x) x1 f(y1),
f = A B^-1.  Where rho mu = (mu (x) alpha) rho holds for M and N
(eq-1.8-coact) and eq-2.1 for M, rho(c(x (x) y)) = nu(y00) (x)
u.mu^-1(x0) (x) w f alpha(y01) with (u, w) = T_M(B^-1(y1), alpha^-1(x1)),
and (c (x) id) rho(x (x) y) = nu(y00) (x) B^-1(y01).mu^-1(x0) (x) y1 x1.
Both are one map of Xi(y01, y1, x1), with Xi_L(s, t', r) = T_M(B^-1(t'),
alpha^-1(r)) times f alpha(s) on its second leg and Xi_R(s, t', r) =
(B^-1(s), t' r).  Where eq-1.7 holds for N, y00 (x) y01 (x) y1 = nu^-1(y0)
(x) y11 (x) alpha(y12), so Xi meets only pre(t, r) = (t1, alpha(t2), r),
and Xi_L pre = Xi_R pre, maps on H (x) H, proves the item with those laws.

Xi_L pre = Xi_R pre is not computed either.  With s = alpha(t2), where B
is a coalgebra map that commutes with S^-1, T_M(B^-1(s), alpha^-1(r)) =
(alpha B^-1(s21), (s22 alpha^-2(r)) A B^-1 S^-1(s1)).  Hom-associativity
and A B^-1 multiplicative and commuting with alpha turn its second leg
times f alpha(t1) into alpha(s22 alpha^-2(r)) A B^-1(S^-1(s1) t1).  Where
comul alpha = (alpha (x) alpha) comul (eq-1.5), s1, s21 and s22 are the
legs h21, h221 and h222 of h = alpha(t), and t1 = alpha^-1(h1), so Xi_L
pre = G' (kappa_L alpha (x) id) for G'(z, x, y, r) = (alpha B^-1(x),
alpha(y alpha^-2(r)) A B^-1(z)); A B^-1(1) = 1, eq-1.2-right,
alpha-mult and eq-1.5 make G' (kappa_R alpha (x) id) = Xi_R pre.  So
kappa, eq-1.1, alpha-mult, eq-1.2-right and eq-1.5; aut-mult, aut-unit and
aut-alpha of A; and aut-comul, aut-mult, aut-unit, aut-antipode and
aut-alpha of B prove it.

braiding-morphism(M, N).  Module-twist for M and eq-1.8-coact for N give
(nu (x) mu) c(x (x) y) = nu^2(y0) (x) alpha B^-1(y1).x and c(mu(x) (x)
nu(y)) = nu^2(y0) (x) B^-1 alpha(y1).x, so alpha B = B alpha, which gives
alpha B^-1 = B^-1 alpha for an exact stored inverse, proves the item with
those laws.

naturality-id(M, N) states (id (x) id) c = c (id (x) id), which holds for
any map c, since kron(I, I) is an identity; it passes, and nothing is
computed for it.

braiding-inverse-left(M, N) and braiding-inverse-right(M, N).  With mu =
mu_M, nu = mu_N and B = B_M, c^-1 c(x (x) y) = B^-1 S(y'1).mu^-1(x') (x)
nu(y'0) for y' = nu(y0) and x' = B^-1(y1).mu^-1(x).  eq-1.8-coact for N
makes it B^-1 S alpha(y01).mu^-1(x') (x) nu^2(y00); module-twist for M,
read as mu^-1(a.m) = alpha^-1(a).mu^-1(m), and module-assoc, a.(b.m) =
(alpha^-1(a) b).mu(m), make its first leg (alpha^-1 B^-1 S alpha(y01)
alpha^-1 B^-1(y1)).mu^-1(x), and eq-1.7 for N, y00 (x) y01 (x)
alpha^-1(y1) = nu^-1(y0) (x) y11 (x) y12, turns the whole into (alpha^-1
B^-1 S alpha(y11) alpha^-1 B^-1 alpha(y12)).mu^-1(x) (x) nu(y0).  Where B
and S commute with alpha (aut-alpha, antipode-alpha) and B is
multiplicative and unital (aut-mult, aut-unit), with exact stored
inverses, the product is B^-1(S(y11) y12), which S(h1)h2 = eps(h)1
(antipode-left) makes eps(y1) 1; module-unit for M, 1.m = mu(m), and
eq-1.8-counit for N, y0 eps(y1) = nu^-1(y), end it in x (x) y.  c c^-1(y
(x) x) takes the same steps to B^-1(y11 S(y12)).mu^-1(x) (x) nu(y0), which
h1 S(h2) = eps(h)1 (antipode-right) ends in y (x) x.  So those laws prove
both items; alpha(ab) = alpha(a) alpha(b) and B S = S B are not read.

unit-left-module(N), unit-left-comodule(N), unit-right-module(N) and
unit-right-comodule(N).  The unit object k (trivial_yd) acts through eps,
coacts through 1 and lies in (id, id), and l and r are nu = mu_N on the
flattened carriers of 1 (x) N and N (x) 1.  For N in (A, B), 1 (x) N acts
by h.(1 (x) y) = eps(A(h1)) A^-1 A(h2).y; check_automorphism states
aut-counit only for a bijective A, so A^-1 A = id, and eps A = eps
(aut-counit) and eps(h1) h2 = alpha^-1(h) (counit-left) make it
alpha^-1(h).y, so module-twist for N, nu(alpha^-1(h).y) = h.nu(y), proves
unit-left-module.  N (x) 1 acts by h1.y eps(B(h2)), which eps B = eps and
h1 eps(h2) = alpha^-1(h) (counit-right) make alpha^-1(h).y, and
module-twist proves unit-right-module.  1 (x) N coacts by y0 (x) y1 1 and
N (x) 1 by y0 (x) 1 y1, which a1 = alpha(a) (eq-1.2-right) and 1a =
alpha(a) (eq-1.2-left) make y0 (x) alpha(y1), so eq-1.8-coact for N,
rho(nu(y)) = nu(y0) (x) alpha(y1), proves the two comodule items.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cache, cached_property

from .exactlin import LinearMap, flip, kron, permute
from .hom_algebra import (AutPair, InvalidStructure, _require_shape, _shape_report, check_antipode,
                          check_automorphism, check_hom_algebra, check_hom_coalgebra)
from .reports import CheckReport, Witness, check_laws, index_leg
from .yd_modules import YDModuleData, check_hom_comodule, check_hom_module, check_yd, trivial_yd


def group_mul(p, q):
    """(A, B) * (C, D) = (AC, D C^-1 B C)."""
    return AutPair(p.a @ q.a, q.b @ q.a.inv() @ p.b @ q.a, label="%s*%s" % (p.name, q.name))


def group_inv(p):
    """(A, B)^-1 = (A^-1, A B^-1 A^-1)."""
    return AutPair(p.a.inv(), p.a @ p.b.inv() @ p.a.inv(), label="%s^-1" % p.name)


# ---------------------------------------------------------------------------
# tensor product and conjugation of modules
# ---------------------------------------------------------------------------


def tensor_yd(m, n):
    """M (x) N in component pair(M) * pair(N), with B from M's pair and C
    from N's:

        h.(x (x) y) = C(h1).x (x) C^-1 B C(h2).y
                    = (act_M flip (x) id) (id (x) left) (flip (x) id),
        left(h (x) y) = C(h1) (x) C^-1 B C(h2).y
                      = (id (x) act_N (C^-1 B C (x) id)) ((C (x) id) comul (x) id),
        rho(x (x) y) = (x0 (x) y0) (x) y1 x1
                     = (id (x) right) (rho_M (x) id),
        right(x1 (x) y) = y0 (x) y1 x1 = (id (x) mul) (rho_N (x) id) flip.

    act_M flip is M's tensor_act, and right and (C (x) id) comul are N's
    tensor_coact and tensor_comul.
    """
    if m.over is not n.over and not m.over.equal_tables(n.over):
        raise ValueError("tensor factors live over different algebras")
    act, coact = _tensor_maps(m, n)
    return YDModuleData(m.over, act, coact, kron(m.mu, n.mu), group_mul(m.pair, n.pair),
                        basis=_tensor_basis(m, n), label="%s(x)%s" % (m.name, n.name))


def _tensor_basis(m, n):
    """The basis labels of M (x) N."""
    return tuple("%s(x)%s" % (a, b) for a in m.basis for b in n.basis)


def _tensor_maps(m, n):
    """The action and coaction of M (x) N (tensor_yd); only the piece
    act_N (C^-1 B C (x) id) of left depends on both factors, and C rides on
    N's tensor_comul, not on that piece."""
    d, dm, dn = m.over.dim, m.dim, n.dim
    idm, idn = LinearMap.identity(dm), LinearMap.identity(dn)
    left = kron(LinearMap.identity(d), n.action @ kron(_phi(m.pair_b, n.pair_a), idn)) @ kron(n.tensor_comul, idn)
    act = kron(m.tensor_act, idn) @ kron(idm, left) @ kron(flip(d, dm), idn)
    coact = kron(idm, n.tensor_coact) @ kron(m.coaction, idn)
    return act, coact


def _phi(b, c):
    """C^-1 B C: for B from M's pair and C from N's, H acts on the right
    factor of M (x) N through it, after C."""
    return c.inverse @ b.matrix @ c.matrix


def _conj_phi(p, c):
    """C^-1 B C A^-1 for p = (A, B) and C from N's pair: H acts on ^pN
    through it."""
    return _phi(p.b, c) @ p.a.inverse


def _conj_f(p):
    """A B^-1 for p = (A, B): ^pN coacts through it."""
    return p.a.matrix @ p.b.inverse


def _conj_pair(p, pair):
    """p * pair * p^-1, the component of ^pN for N in component pair."""
    return group_mul(group_mul(p, pair), group_inv(p))


def conjugate_yd(p, n):
    """The conjugation functor on objects: same carrier and twist, component
    moved to p * pair(N) * p^-1, and with p = (A, B), C from N's pair,

        h.y = C^-1 B C A^-1(h).y  = act_N (C^-1 B C A^-1 (x) id),
        rho(y) = y0 (x) A B^-1(y1) = (id (x) A B^-1) rho_N.
    """
    dn = n.dim
    act = n.action @ kron(_conj_phi(p, n.pair_a), LinearMap.identity(dn))
    coact = kron(LinearMap.identity(dn), _conj_f(p)) @ n.coaction
    return YDModuleData(n.over, act, coact, n.mu, _conj_pair(p, n.pair),
                        basis=n.basis, label="^%s%s" % (p.name, n.name))


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------


class BraidingMap:
    """The component-crossing isomorphism M (x) N -> (^M N) (x) M: its
    source (M, N) and its matrix, given, or built by braiding when first
    read."""

    def __init__(self, source, matrix=None):
        self.source = source
        if matrix is not None:
            self.matrix = matrix

    @cached_property
    def matrix(self):
        return braiding(*self.source).matrix

    def __repr__(self):
        m, n = self.source
        return "BraidingMap(%s, %s)" % (m.name, n.name)


def braiding(m, n):
    """eq-3.3, with B from M's component pair and the action being M's:

        c(x (x) y) = nu(y0) (x) B^-1(y1) . mu^-1(x)
                   = (id (x) act_M (B^-1 (x) mu^-1)) ((nu (x) id) rho_N (x) id) flip,

    where act_M (B^-1 (x) mu^-1) is M's braid_act and (nu (x) id) rho_N is
    N's braid_coact.
    """
    matrix = (kron(LinearMap.identity(n.dim), m.braid_act) @ kron(n.braid_coact, LinearMap.identity(m.dim))
              @ flip(m.dim, n.dim))
    return BraidingMap((m, n), matrix)


def braiding_inverse(b):
    """lemma-3.6, with nu moved through the leg permutation onto rho_N:

        c^-1(y (x) x) = B^-1(S(y1)) . mu^-1(x) (x) nu(y0)
                      = (act_M (B^-1 S (x) mu^-1) (x) id) (y, h, x -> h, x, y) ((nu (x) id) rho_N (x) id),

    where act_M (B^-1 S (x) mu^-1) is M's inverse_act and (nu (x) id) rho_N
    is N's braid_coact.
    """
    m, n = b.source
    return (
        kron(m.inverse_act, LinearMap.identity(n.dim)) @ permute((n.dim, m.over.dim, m.dim), (1, 2, 0))
        @ kron(n.braid_coact, LinearMap.identity(m.dim))
    )


def associator(m, n, p):
    """Twisted associativity constraint (M (x) N) (x) P -> M (x) (N (x) P);
    on flattened coordinates the untwisted reindexing is the identity, so
    only the twists mu (x) id (x) twist^-1 remain."""
    return kron(m.mu, kron(LinearMap.identity(n.dim), p.mu_inv))


class _Components(list):
    """The distinct component automorphisms of one check_t_category call,
    of its modules and of its pairs, numbered by ==, which hashes no map,
    and report[k,] = check_automorphism of value k, built when first read,
    which the pair-automorphism items and the certificates share."""

    def __init__(self, h):
        super().__init__()
        self.report = _Kept(lambda k: check_automorphism(h, self[k]))

    def key(self, pair):
        """The numbers (a, b) of pair's A and B, numbering a new value."""
        for aut in (pair.a, pair.b):
            if aut not in self:
                self.append(aut)
        return self.index(pair.a), self.index(pair.b)


def _passing(report):
    """The ids of report's passing items.  check_automorphism reports only
    aut-invertible for a map that is not bijective, so its other ids are
    absent there and read as failing."""
    return {item.identity for item in report.items if item.passed}


def _laws(h, modules, comps):
    """The laws the certificates read (module docstring), each by its id
    from the suite that states it, as the set of the ids that pass: per
    module, by position, of check_hom_module and check_hom_comodule; per
    component value k, of comps.report[k,] (check_automorphism), kept; on H,
    once, of check_hom_algebra, check_hom_coalgebra and check_antipode, and
    kappa (_contraction_law), computed here where eq-1.1, alpha-mult and
    eq-1.2-right hold, which tensor-component and the braiding module-map
    and comodule-map slots read with them."""
    per_module = [_passing(check_hom_module(m)) | _passing(check_hom_comodule(m)) for m in modules]
    values = _Kept(lambda k: _passing(comps.report[k,]))
    on_h = _passing(check_hom_algebra(h.algebra)) | _passing(check_hom_coalgebra(h.coalgebra)) | _passing(
        check_antipode(h))
    if {"eq-1.1", "alpha-mult", "eq-1.2-right"} <= on_h and _contraction_law(h):
        on_h.add("kappa")
    return per_module, values, on_h


def _contraction_law(h):
    """Whether kappa_L = kappa_R holds on H, the identity of maps H ->
    H^(x)3 that tensor-component and the braiding module-map and
    comodule-map certificates read besides the laws the suites state
    (module docstring): kappa_L(h) = (S^-1(h21) alpha^-1(h1), h221, h222)
    and kappa_R(h) = (1, alpha^-2(h1), alpha^-2(h2)), each taken right to
    left on the 4 columns of H."""
    d = h.dim
    idh, comul, alpha_inv = LinearMap.identity(d), h.coalgebra.comul, h.alpha_inv
    contract = h.algebra.mul @ kron(h.antipode_inv, alpha_inv) @ flip(d, d)
    left = kron(contract, LinearMap.identity(d * d)) @ (kron(idh, kron(idh, comul) @ comul) @ comul)
    twice = alpha_inv @ alpha_inv
    return left == kron(h.algebra.unit, kron(twice, twice) @ comul)


def _certificates(keys, laws):
    """Per triple (i, j, k) of module positions, whether the module and the
    comodule half of tensor-assoc, eq-3.4 and eq-3.5 hold by their
    certificates (module docstring), each a conjunction of the laws read by
    id (_laws); keys holds the numbers of the modules' pairs in
    _Components."""
    mods, values, on_h = laws
    braid_law = [{"module-twist", "module-assoc"} <= mods[i] and "aut-mult" in values[b,] and "alpha-mult" in on_h
                 for i, (_, b) in enumerate(keys)]
    certified = {}
    for (i, (_, b)), (j, (c, d)), (k, (e, _)) in itertools.product(enumerate(keys), repeat=3):
        # B_M, A_N and A_P are coalgebra maps, and they and B_N commute with
        # alpha
        module_half = ("module-twist" in mods[i] and "module-twist" in mods[k] and "eq-1.4" in on_h
                       and all({"aut-comul", "aut-alpha"} <= values[x,] for x in (b, c, e))
                       and "aut-alpha" in values[d,])
        # B_MN^-1 alpha is a coalgebra map
        coalgebra_map = "eq-1.5" in on_h and all("aut-comul" in values[x,] for x in (b, c, d))
        certified[i, j, k] = (module_half,
                              "eq-1.1" in on_h and "eq-1.8-coact" in mods[i] and "eq-1.8-coact" in mods[k],
                              {"eq-1.8-coact", "eq-1.7"} <= mods[k] and coalgebra_map, braid_law[i])
    return certified


def _functor_certificates(pair_keys, keys, laws):
    """Whether functor-tensor(p;M,N) holds by its certificate (module
    docstring), keyed by the positions (p, M, N): A_p and B_p are
    multiplicative coalgebra maps, and A_M and A_N coalgebra maps, read by
    id (_laws); pair_keys and keys hold the numbers of the pairs p and of
    the modules' pairs in _Components."""
    _, values, _ = laws
    pair_held = [{"aut-mult", "aut-comul"} <= values[a,] & values[b,] for a, b in pair_keys]
    comul = ["aut-comul" in values[a,] for a, _ in keys]
    return {(pi, i, j): pair_held[pi] and comul[i] and comul[j]
            for pi in range(len(pair_keys)) for i, j in itertools.product(range(len(keys)), repeat=2)}


def _braiding_certificates(keys, member, laws):
    """Per pair (i, j) of module positions, whether tensor-component,
    braiding-module-map, braiding-comodule-map, braiding-morphism,
    braiding-inverse-left and braiding-inverse-right hold by their
    certificates (module docstring), each a conjunction of the
    yd-member verdicts member and the laws read by id (_laws), kappa among
    those of H; keys holds the numbers of the modules' pairs in
    _Components."""
    mods, values, on_h = laws
    hopf = {"aut-comul", "aut-mult", "aut-unit", "aut-antipode"}
    certified = {}
    for (i, (a, b)), (j, (c, d)) in itertools.product(enumerate(keys), repeat=2):
        # kappa and the laws of H that prove lambda = rho; B of M and C of N
        # are bialgebra maps that commute with S^-1, and M's A and B and N's
        # C and D commute with alpha
        component = (member[i] and member[j]
                     and {"kappa", "eq-1.2-left", "eq-1.3", "eq-1.4", "eq-1.5", "antipode-alpha"} <= on_h
                     and hopf <= values[b,] and hopf <= values[c,]
                     and all("aut-alpha" in values[k,] for k in (a, b, c, d)))
        module_map = (member[j] and {"module-twist", "module-assoc"} <= mods[i] and "module-twist" in mods[j]
                      and {"kappa", "eq-1.3"} <= on_h and {"aut-comul", "aut-mult", "aut-antipode", "aut-alpha"}
                      <= values[b,] and hopf | {"aut-alpha"} <= values[c,] and "aut-alpha" in values[d,])
        comodule_map = (member[i] and "eq-1.8-coact" in mods[i] and {"eq-1.8-coact", "eq-1.7"} <= mods[j]
                        and {"kappa", "eq-1.5"} <= on_h and {"aut-mult", "aut-unit", "aut-alpha"} <= values[a,]
                        and hopf | {"aut-alpha"} <= values[b,])
        morphism = "module-twist" in mods[i] and "eq-1.8-coact" in mods[j] and "aut-alpha" in values[b,]
        inverse = ({"module-twist", "module-assoc", "module-unit"} <= mods[i]
                   and {"eq-1.7", "eq-1.8-coact", "eq-1.8-counit"} <= mods[j]
                   and {"aut-mult", "aut-unit", "aut-alpha"} <= values[b,] and "antipode-alpha" in on_h)
        certified[i, j] = (component, module_map, comodule_map, morphism,
                           inverse and "antipode-left" in on_h, inverse and "antipode-right" in on_h)
    return certified


def _unit_certificates(keys, laws):
    """Per module position, whether unit-left-module, unit-left-comodule,
    unit-right-module and unit-right-comodule hold by their certificates
    (module docstring), in that order, conjunctions of laws of N, of its A
    or B and of H read by id (_laws); keys holds the numbers of the
    modules' pairs in _Components."""
    mods, values, on_h = laws
    return {i: ("module-twist" in mods[i] and "counit-left" in on_h and "aut-counit" in values[a,],
                "eq-1.8-coact" in mods[i] and "eq-1.2-right" in on_h,
                "module-twist" in mods[i] and "counit-right" in on_h and "aut-counit" in values[b,],
                "eq-1.8-coact" in mods[i] and "eq-1.2-left" in on_h)
            for i, (a, b) in enumerate(keys)}


def _conjugate_certificates(pair_keys, keys, member, laws):
    """Whether conjugate-component(p;N) holds by its certificate (module
    docstring), keyed by the positions (p, N): yd-member(N), A_p, B_p and
    A_N coalgebra maps that commute with alpha and S, and A_p and B_p
    multiplicative, read by id (_laws); pair_keys and keys hold the numbers
    of the pairs p and of the modules' pairs in _Components, and member the
    yd-member verdicts."""
    _, values, _ = laws
    laws_of_a = {"aut-comul", "aut-alpha", "aut-antipode"}
    pair_held = [laws_of_a | {"aut-mult"} <= values[a,] & values[b,] for a, b in pair_keys]
    return {(pi, i): pair_held[pi] and member[i] and laws_of_a <= values[a,]
            for pi in range(len(pair_keys)) for i, (a, _) in enumerate(keys)}


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _pair_labels(m, n):
    return "%s,%s" % (m.name, n.name)


def _decided(suite, laws):
    """The report of suite with one item per record (identity, law text,
    legs, holds, sides), in order: an item whose certificate holds passes,
    and for any other sides() builds the two maps that check_laws
    compares."""
    rep = CheckReport(suite)
    for ident, law, legs, holds, sides in laws:
        if holds:
            rep.add(ident, law, True)
        else:
            rep.extend(check_laws(suite, ((ident, law, legs) + sides(),)))
    return rep


def check_braiding_equivariance(b, src, tgt, certified):
    """The braiding intertwines the tensor actions and tensor coactions of
    its source M (x) N and its target ^MN (x) M, and is a morphism for the
    carrier twists.  certified holds, per item in that order, whether its
    certificate holds (module docstring): such an item passes, and any
    other is an exact matrix equality.  src and tgt are functions of no
    argument that return M (x) N and ^MN (x) M; only a module-map or
    comodule-map item whose certificate fails calls them."""
    m, n = b.source
    h = m.over
    idh = LinearMap.identity(h.dim)
    tag = _pair_labels(m, n)
    basis = _tensor_basis(m, n)
    return _decided("braiding", (
        ("braiding-module-map(%s)" % tag, "c(h.(m (x) n)) = h.c(m (x) n)", (h.basis, basis), certified[0],
         lambda: (b.matrix @ src().action, tgt().action @ kron(idh, b.matrix))),
        ("braiding-comodule-map(%s)" % tag, "rho(c(m (x) n)) = (c (x) id) rho(m (x) n)", (basis,), certified[1],
         lambda: (kron(b.matrix, idh) @ src().coaction, tgt().coaction @ b.matrix)),
        ("braiding-morphism(%s)" % tag, "(nu (x) mu) c = c (mu (x) nu)", (basis,), certified[2],
         lambda: (kron(n.mu, m.mu) @ b.matrix, b.matrix @ kron(m.mu, n.mu))),
    ))


def check_braiding_inverse(b, certified):
    """Both composites of b with its inverse braiding_inverse(b), the
    lemma-3.6 formula, are identities.  certified holds, per item in that
    order, whether its certificate holds (module docstring): such an item
    passes, and any other is an exact matrix equality, which reads b's
    matrix and builds braiding_inverse(b), once for both."""
    m, n = b.source
    tag = _pair_labels(m, n)
    dim = m.dim * n.dim
    legs = (index_leg(dim),)
    inv = cache(lambda: braiding_inverse(b))
    return _decided("braiding", (
        ("braiding-inverse-left(%s)" % tag, "c^-1 c = id", legs, certified[0],
         lambda: (inv() @ b.matrix, LinearMap.identity(dim))),
        ("braiding-inverse-right(%s)" % tag, "c c^-1 = id", legs, certified[1],
         lambda: (b.matrix @ inv(), LinearMap.identity(dim))),
    ))


def check_unit_constraints(n, certified):
    """The unit constraints of N: l and r, the twist nu of N on the
    flattened carriers of 1 (x) N and N (x) 1 for the unit object 1
    (trivial_yd), intertwine the actions and the coactions.  certified
    holds, per item in that order, whether its certificate holds (module
    docstring): such an item passes, and any other is an exact matrix
    equality, which builds its side's unit tensor, once for both items."""
    h = n.over
    idh = LinearMap.identity(h.dim)
    laws = []
    for side, sym, src, t, held in (
        ("left", "l", "1 (x) n", cache(lambda: tensor_yd(trivial_yd(h), n)), certified[:2]),
        ("right", "r", "n (x) 1", cache(lambda: tensor_yd(n, trivial_yd(h))), certified[2:]),
    ):
        laws += [
            ("unit-%s-module(%s)" % (side, n.name), "%s(h.(%s)) = h.%s(%s)" % (sym, src, sym, src),
             (h.basis, n.basis), held[0], lambda t=t: (n.mu @ t().action, n.action @ kron(idh, n.mu))),
            ("unit-%s-comodule(%s)" % (side, n.name), "rho(%s(%s)) = (%s (x) id) rho(%s)" % (sym, src, sym, src),
             (index_leg(n.dim),), held[1], lambda t=t: (kron(n.mu, idh) @ t().coaction, n.coaction @ n.mu)),
        ]
    return _decided("t-category", laws)


def check_hexagons(c_mn, c_np, c_mp, mn, np, np_conj, certified):
    """The two crossed hexagon identities eq-3.4 and eq-3.5 for M, N, P,
    given the braidings of the pairs and per equation whether its
    certificate holds (module docstring).  An equation whose
    certificate holds passes; any other is an exact matrix equality on the
    flattened triple tensor, which builds c_{MN,P} and c_{M,^NP} for eq-3.4
    and c_{M,NP} for eq-3.5.  mn, np and np_conj are functions of no
    argument that return MN = M (x) N, NP = N (x) P and ^NP, P conjugated
    by N's pair; only an equation whose certificate fails calls the ones it
    reads.  Conjugates keep carrier and twist, so ^{MN}P, ^MN and ^MP enter
    only as P's and N's twists."""
    m, n = c_mn.source
    p = c_np.source[1]
    tag = "%s,%s,%s" % (m.name, n.name, p.name)

    idm = LinearMap.identity(m.dim)
    idn = LinearMap.identity(n.dim)
    idp = LinearMap.identity(p.dim)

    legs = (m.basis, n.basis, p.basis)
    return _decided("hexagons", (
        # eq-3.4 on M (x) (N (x) P)
        ("eq-3.4(%s)" % tag, "a^-1 c_{MN,P} a^-1 = (c_{M,^NP} (x) id) a^-1 (id (x) c_{N,P})", legs, certified[0],
         lambda: (kron(p.mu_inv, kron(idm, n.mu)) @ braiding(mn(), p).matrix @ kron(m.mu_inv, kron(idn, p.mu)),
                  kron(braiding(m, np_conj()).matrix, idn) @ kron(m.mu_inv, kron(idp, n.mu))
                  @ kron(idm, c_np.matrix))),
        # eq-3.5 on (M (x) N) (x) P
        ("eq-3.5(%s)" % tag, "a c_{M,NP} a = (id (x) c_{M,P}) a (c_{M,N} (x) id)", legs, certified[1],
         lambda: (kron(n.mu, kron(idp, m.mu_inv)) @ braiding(m, np()).matrix @ kron(m.mu, kron(idn, p.mu_inv)),
                  kron(idn, c_mp.matrix) @ kron(n.mu, kron(idm, p.mu_inv)) @ kron(c_mn.matrix, idp))),
    ))


def check_conjugation_invariance(p, b):
    """conjugation-invariance(p;M,N) for b = c_{M,N}: the braiding
    c_{^pM,^pN} of the p-conjugates of b's source modules equals b as a
    matrix (crossed-category axiom for the conjugation functors).  With
    exact stored inverses that is the group word phi_{p,M} B_{^pM}^-1 f_p =
    B_M^-1, which holds for any pair (module docstring), so the item passes
    and c_{^pM,^pN} is not built."""
    m, n = b.source
    rep = CheckReport("conjugation")
    rep.add("conjugation-invariance(%s;%s,%s)" % (p.name, m.name, n.name), "c_{^pM,^pN} = c_{M,N}", True)
    return rep


def _structures_equal(rep, ident, law, certified, objects):
    """One item, passing where its certificate holds; otherwise
    objects() builds the two objects, and the item fails naming the pieces
    in which they differ."""
    pieces = []
    if not certified:
        x, y = objects()
        pieces = x.differences(y)
    rep.add(ident, law, not pieces, Witness((), tuple(pieces), (), ()) if pieces else None)


def sample_nonzero_rationals(seed, count, max_abs=4, denominators=(1, 2, 3)):
    """Deterministic stream of small nonzero rationals for property suites."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        num = rng.randint(-max_abs, max_abs)
        if num:
            out.append(Fraction(num, rng.choice(denominators)))
    return out


class _Kept(dict):
    """Objects built by build(*key) when first read, and kept by their key,
    a tuple of positions or of value numbers (_Components), for one
    check_t_category call."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        self[key] = value = self._build(*key)
        return value


def check_t_category(h, modules, pairs):
    """Aggregate suite: group axioms, component placement of tensor products
    and conjugations, functor identities, unit constraints, and for every
    pair/triple of the given modules the braiding properties, hexagons,
    invertibility and conjugation invariance.

    modules and pairs are lists; all checks iterate them in order, so the
    resulting report is deterministic.  A pair whose automorphisms are not
    dim(H) x dim(H), or a module over another algebra than h (one whose
    tables differ from h's), raises InvalidStructure with the one item shape.
    An item whose certificate holds passes (module docstring); only
    one that fails builds the objects it compares, each once per call, so a
    clean call builds no tensor product, conjugate, braiding matrix or unit
    tensor.
    """
    rep = CheckReport("t-category")
    modules = list(modules)
    pairs = list(pairs)
    for p in pairs:
        for aut in (p.a, p.b):
            _require_shape(rep.suite, "pair", aut.matrix, h.dim, h.dim)
    for m in modules:
        if m.over is not h and not m.over.equal_tables(h):
            raise InvalidStructure(_shape_report(rep.suite, "module %s lives over another algebra" % m.name))
    idh = LinearMap.identity(h.dim)
    index_pairs = list(itertools.product(range(len(modules)), repeat=2))
    tensor = _Kept(lambda i, j: tensor_yd(modules[i], modules[j]))
    twisted = _Kept(lambda i, j: conjugate_yd(modules[i].pair, modules[j]))
    target = _Kept(lambda i, j: tensor_yd(twisted[i, j], modules[i]))
    braid = _Kept(lambda i, j: BraidingMap((modules[i], modules[j])))
    conj = _Kept(lambda pi, i: conjugate_yd(pairs[pi], modules[i]))
    comps = _Components(h)
    keys = [comps.key(m.pair) for m in modules]
    pair_keys = [comps.key(p) for p in pairs]

    for p, key in zip(pairs, pair_keys):
        for name, k in zip("ab", key):
            rep.add_verdict("pair-automorphism(%s.%s)" % (p.name, name),
                            "component of an index-group element is a structure automorphism", comps.report[k,])

    # identities of G for any pairs with exact inverses (module docstring)
    rep.add("group-assoc", "(p*q)*r = p*(q*r)", True)
    rep.add("group-unit", "(id,id)*p = p = p*(id,id)", True)
    rep.add("group-inv", "p^-1 * p = (id,id) = p * p^-1", True)

    member = []
    for m in modules:
        sub = check_yd(m)
        rep.add_verdict("yd-member(%s)" % m.name, "module satisfies eq-2.1 in its component", sub)
        member.append(sub.ok())

    laws = _laws(h, modules, comps)
    braided = _braiding_certificates(keys, member, laws)
    for i, j in index_pairs:
        m, n = modules[i], modules[j]
        b = braid[i, j]
        component, *equivariant, left, right = braided[i, j]
        ident = "tensor-component(%s)" % _pair_labels(m, n)
        law = "M (x) N satisfies eq-2.1 in component pair(M)*pair(N)"
        if component:
            rep.add(ident, law, True)
        else:
            rep.add_verdict(ident, law, check_yd(tensor[i, j]))
        rep.extend(check_braiding_equivariance(b, lambda: tensor[i, j], lambda: target[i, j], equivariant))
        rep.extend(check_braiding_inverse(b, (left, right)))
        # (id (x) id) c = c (id (x) id) for any map c (module docstring)
        rep.add("naturality-id(%s)" % _pair_labels(m, n), "(id (x) id) c = c (id (x) id)", True)

    conjugated = _conjugate_certificates(pair_keys, keys, member, laws)
    for pi, p in enumerate(pairs):
        for i, n in enumerate(modules):
            ident = "conjugate-component(%s;%s)" % (p.name, n.name)
            law = "^pN satisfies eq-2.1 in component p*pair(N)*p^-1"
            if conjugated[pi, i]:
                rep.add(ident, law, True)
            else:
                rep.add_verdict(ident, law, check_yd(conj[pi, i]))

    for p, q in itertools.product(pairs, repeat=2):
        for n in modules:
            rep.add("functor-compose(%s,%s;%s)" % (p.name, q.name, n.name),
                    "^(p*q)N = ^p(^qN) as structure tensors", True)

    functor_tensor = _functor_certificates(pair_keys, keys, laws)
    for pi, p in enumerate(pairs):
        for i, j in index_pairs:
            m, n = modules[i], modules[j]
            _structures_equal(
                rep, "functor-tensor(%s;%s)" % (p.name, _pair_labels(m, n)),
                "^p(M (x) N) = ^pM (x) ^pN as structure tensors", functor_tensor[pi, i, j],
                lambda: (conjugate_yd(p, tensor[i, j]), tensor_yd(conj[pi, i], conj[pi, j])),
            )
            rep.extend(check_conjugation_invariance(p, braid[i, j]))

    certified = _certificates(keys, laws)
    for i, j, k in itertools.product(range(len(modules)), repeat=3):
        m, n, p_mod = modules[i], modules[j], modules[k]
        holds = all(certified[i, j, k][:2])
        if not holds:
            left_act, left_coact = _tensor_maps(tensor[i, j], p_mod)
            right_act, right_coact = _tensor_maps(m, tensor[j, k])
            # the orders coincide strictly only for identity twists; in
            # general the twisted constraint intertwines them
            a = associator(m, n, p_mod)
            holds = right_act @ kron(idh, a) == a @ left_act and right_coact @ a == kron(a, idh) @ left_coact
        rep.add(
            "tensor-assoc(%s,%s,%s)" % (m.name, n.name, p_mod.name),
            "(M (x) N) (x) P and M (x) (N (x) P) share the component and are "
            "intertwined by the twisted constraint",
            holds,
        )
        rep.extend(check_hexagons(braid[i, j], braid[j, k], braid[i, k], lambda: tensor[i, j],
                                  lambda: tensor[j, k], lambda: twisted[j, k], certified[i, j, k][2:]))

    unital = _unit_certificates(keys, laws)
    for i, n in enumerate(modules):
        rep.extend(check_unit_constraints(n, unital[i]))

    rep.add(
        "thm-3.7",
        "the component family with tensor, conjugation and braiding is a braided crossed category",
        all(item.passed for item in rep.items),
    )
    return rep

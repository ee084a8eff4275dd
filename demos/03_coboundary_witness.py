"""Seeing a torsion class die: an explicit coboundary witness.

In the chain group with d = (2, 4), H^2(G, Z) = Z^5 (+) Z_2. The Z_2
class is represented by a LemmaX cocycle w = w_f, whose double is
trivial in cohomology, so 2w must be a coboundary: 2w(g, g') = u(g) +
u(g') - u(g g') for some u: G -> Z. The primitive has a closed form: the
group law subtracts the collection term sum_{i<j} a_j a'_i c(i, j) from
b, so any lambda with C^T lambda = 2f gives u = -lambda . b. lambda is
read off the Smith coordinates of 2f, from the same elimination of C^T
that gave the generators, and u is certified by the exact identity
delta u = 2w, checked monomial by monomial. For w itself the coordinates
admit no lambda: f lies outside im(c^*), which proves that w is not a
coboundary.

Run:  python3 demos/03_coboundary_witness.py
"""

import random

from nilcoh import (
    coboundary_witness,
    evaluate,
    families,
    h2,
    lemmax_generators,
    multiply,
    random_element,
    render,
)

P = families.divisor_chain_group((2, 4))
print("group: d = (2, 4),  H^2 =", h2(P, 1).total)

# --- the torsion representative ------------------------------------------
torsion = [w for w in lemmax_generators(P) if w.order]
w = torsion[0]
print("\norder-%d class, represented by  w(g, g') = %s" % (w.order, render(P, w)))

# --- the double is a coboundary ------------------------------------------
u = coboundary_witness(P, 2 * w)
print("\nwitness for 2w:  u =", u.render())

rng = random.Random(17)
checks = 0
for _ in range(500):
    g = random_element(P, 10, rng)
    h = random_element(P, 10, rng)
    delta = u.evaluate(g) + u.evaluate(h) - u.evaluate(multiply(P, g, h))
    checks += delta == evaluate(P, 2 * w, g, h)
print("delta(u) == 2w on fresh pairs: %d/500" % checks)

# --- the class itself is not a coboundary --------------------------------
# None means C^T lambda = f has no integer solution: a proof, which the
# Z_2 summand above confirms.
missing = coboundary_witness(P, w)
print("\nwitness for w itself:", missing, "(a proof that w is not a coboundary)")

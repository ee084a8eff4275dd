"""Torsion in H^2 across a family of groups.

The groups here have generators x_1, y_1, ..., x_k, y_k and a central z
with [x_i, y_i] = z^{d_i} for a divisor chain d_1 | d_2 | ... | d_k.
For k >= 2 the second cohomology is Z^{C(2k,2)-1} (+) Z_{d_1}: the
torsion remembers the first divisor, everything else is free. We verify
that shape, watch the two computation routes agree, and look at how the
free rank matches second homology.

Run:  python3 demos/02_torsion_and_families.py
"""

from math import comb

from nilcoh import families, h2, h2_via_complex, second_homology_rank

# --- the divisor-chain family -------------------------------------------
for chain in [(2, 4), (3, 3, 6), (1, 2, 4, 8), (5, 10, 20)]:
    P = families.divisor_chain_group(chain)
    rep = h2(P, 1)
    k = len(chain)
    print("d = %-12s H^2 = %-18s expected free rank C(%d,2)-1 = %d"
          % (chain, rep.total, 2 * k, comb(2 * k, 2) - 1))

# d_1 = 1 makes the would-be torsion factor trivial and it is dropped:
print()
P = families.divisor_chain_group((1, 2, 4, 8))
print("d_1 = 1 chain has torsion-free H^2:", h2(P, 1).total.torsion == ())

# --- one group, both routes, several coefficient ranks -------------------
# The closed form assembles Coker(c*) and a Hom-module; the cross-check
# computes cohomology of a three-term complex. The two routes share only
# the coefficient-rank rule H^2(G, Z^r) = H^2(G, Z)^r.
print()
P = families.divisor_chain_group((2, 4))
for r in (1, 2, 3):
    total = h2(P, r).total
    other = h2_via_complex(P, r)
    print("r = %d:  closed form %-28s complex path %-28s equal: %s"
          % (r, total, other, total == other))

# --- free rank vs second homology ----------------------------------------
# With Z coefficients the free rank of H^2 equals the free rank of H_2.
print()
for name, P in [("heisenberg", families.heisenberg()),
                ("abelian(4)", families.abelian(4)),
                ("chain (2,4)", families.divisor_chain_group((2, 4)))]:
    rep = h2(P, 1)
    print("%-12s free rank of H^2 = %d, H_2 free rank = %d"
          % (name, rep.total.free_rank, second_homology_rank(P)))

# --- random presentations keep the two routes honest ---------------------
print()
agreements = 0
for seed in range(20):
    P = families.random_presentation(4, 2, bound=5, seed=seed)
    agreements += h2(P, 1).agree
print("dual-path agreement on 20 random presentations: %d/20" % agreements)

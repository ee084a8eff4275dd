"""A tour of the discrete Heisenberg group.

The group of upper unitriangular 3x3 integer matrices, presented by two
degree-1 generators x1, x2 and one central generator y1 with
[x1, x2] = y1. We do some arithmetic in exponent coordinates, compute
H^1 and H^2 two independent ways, list explicit 2-cocycles, and build a
central extension from one of them.

Run:  python3 demos/01_heisenberg_tour.py
"""

from nilcoh import (
    GroupElement,
    build_extension,
    commutator,
    families,
    h1,
    h2,
    h2_via_complex,
    inverse,
    lemmay_basis,
    multiply,
    render,
)
from nilcoh.cocycles import verify_cocycle

P = families.heisenberg()
print("presentation: n = %d, m = %d, [x1, x2] = y1" % (P.n, P.m))

# --- arithmetic in normal-form coordinates -----------------------------
# An element x1^a1 x2^a2 y1^b1 is the pair of exponent vectors (a, b).
g = GroupElement((1, 0), (0,))   # x1
h = GroupElement((0, 1), (0,))   # x2

print("\nx2 * x1 =", multiply(P, h, g), " (the collected word x1 x2 y1^-1)")
print("(x1 x2)^-1 =", inverse(P, GroupElement((1, 1), (0,))))
print("[x1, x2] =", commutator(P, g, h), " (the defining relation)")

# --- cohomology, two ways ----------------------------------------------
print("\nH^1 =", h1(P, 1))
report = h2(P, 1)
print("H^2 =", report.total, " (closed form)")
print("H^2 =", h2_via_complex(P), " (independent complex path)")
print("the two routes agree:", report.agree)

# --- explicit cocycle representatives -----------------------------------
# H^2 = Z^2 here, realized by two polynomial cocycles G x G -> Z.
basis = lemmay_basis(P)
for w in basis:
    print("\ncocycle  w(g, g') =", render(P, w))
    print("identity sampled:", verify_cocycle(P, w, trials=200).message)

# --- a central extension -------------------------------------------------
# Adjoining one fiber coordinate twisted by the first cocycle gives a
# class-3 group of Hirsch length 4 (the free class-3 quotient direction).
E = build_extension(P, [basis[0]])
a = E.random_element(5, seed=1)
b = E.random_element(5, seed=2)
c = E.random_element(5, seed=3)
left = E.multiply(E.multiply(a, b), c)
right = E.multiply(a, E.multiply(b, c))
print("\nextension element:", a)
print("associativity instance holds:", left == right)
print("a * a^-1 =", E.multiply(a, E.inverse(a)))

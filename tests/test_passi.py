"""Degree-2 truncated coordinates and the product rule tying them to the group law."""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import families
from nilcoh.grouplaw import GroupElement, commutator, identity, multiply, random_element
from nilcoh.passi import PassiElement, p2, p2_mul, quad_index

CORPUS = [
    families.heisenberg(),
    families.abelian(3),
    families.discrete_heisenberg(3),
    families.divisor_chain_group((2, 4)),
]

presentation_and_seed = st.tuples(
    st.sampled_from(CORPUS), st.integers(0, 10**6)
)


def unit_x(P, i):
    e = p2(P, identity(P))
    lin = list(e.lin_x)
    lin[i] = 1
    return PassiElement(tuple(lin), e.quad, e.lin_y)


def unit_y(P, l):
    e = p2(P, identity(P))
    lin = list(e.lin_y)
    lin[l] = 1
    return PassiElement(e.lin_x, e.quad, tuple(lin))


class TestBasisIndexing:
    def test_lex_order(self):
        pairs = list(combinations_with_replacement(range(3), 2))
        assert pairs == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        for k, (i, j) in enumerate(pairs):
            assert quad_index(3, i, j) == k

    def test_rejects_unordered(self):
        with pytest.raises(IndexError):
            quad_index(3, 2, 1)


class TestP2:
    def test_single_generator(self):
        P = families.heisenberg()
        e = p2(P, GroupElement((1, 0), (0,)))
        assert e.lin_x == (1, 0)
        assert e.quad == (0, 0, 0)
        assert e.lin_y == (0,)

    def test_generator_squared(self):
        P = families.heisenberg()
        e = p2(P, GroupElement((2, 0), (0,)))
        assert e.lin_x == (2, 0)
        assert e.quad[quad_index(2, 0, 0)] == 1

    def test_generator_inverse(self):
        # C(-1, 2) = 1, so p(x^-1) = -p(x) + p(x)^2
        P = families.heisenberg()
        e = p2(P, GroupElement((-1, 0), (0,)))
        assert e.lin_x == (-1, 0)
        assert e.quad[quad_index(2, 0, 0)] == 1

    def test_identity_maps_to_zero(self):
        for P in CORPUS:
            assert p2(P, identity(P)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            p2(families.heisenberg(), GroupElement((1,), ()))


class TestP2Mul:
    def test_out_of_order_product(self):
        # x2 x1 = x1 x2 + [x2, x1] modulo degree 3
        P = families.heisenberg()
        e = p2_mul(P, unit_x(P, 1), unit_x(P, 0))
        assert e.quad[quad_index(2, 0, 1)] == 1
        assert e.lin_y == (-1,)

    def test_central_factor_truncates(self):
        P = families.heisenberg()
        assert p2_mul(P, unit_y(P, 0), unit_x(P, 0)).is_zero()
        assert p2_mul(P, unit_x(P, 0), unit_y(P, 0)).is_zero()

    def test_square(self):
        P = families.heisenberg()
        e = p2_mul(P, unit_x(P, 0), unit_x(P, 0))
        assert e.quad[quad_index(2, 0, 0)] == 1
        assert e.lin_y == (0,)

    @settings(deadline=None, max_examples=80)
    @given(presentation_and_seed)
    def test_bilinear(self, ps):
        P, seed = ps
        rng = random.Random(seed)
        u, v, w = (p2(P, random_element(P, 6, rng)) for _ in range(3))
        assert p2_mul(P, u + v, w) == p2_mul(P, u, w) + p2_mul(P, v, w)
        assert p2_mul(P, u, v + w) == p2_mul(P, u, v) + p2_mul(P, u, w)


class TestProductRule:
    @settings(deadline=None, max_examples=150)
    @given(presentation_and_seed)
    def test_derivation_identity(self, ps):
        P, seed = ps
        rng = random.Random(seed)
        g = random_element(P, 8, rng)
        h = random_element(P, 8, rng)
        lhs = p2(P, multiply(P, g, h))
        rhs = p2(P, g) + p2(P, h) + p2_mul(P, p2(P, g), p2(P, h))
        assert lhs == rhs

    @settings(deadline=None, max_examples=100)
    @given(presentation_and_seed)
    def test_commutator_compatibility(self, ps):
        P, seed = ps
        rng = random.Random(seed)
        g = random_element(P, 8, rng)
        h = random_element(P, 8, rng)
        u, v = p2(P, g), p2(P, h)
        assert p2(P, commutator(P, g, h)) == p2_mul(P, u, v) - p2_mul(P, v, u)

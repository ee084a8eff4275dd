"""Group arithmetic in normal-form coordinates and presentation validation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import families, grouplaw
from nilcoh.cohomology import h2
from nilcoh.grouplaw import (
    GroupElement,
    GroupPresentation,
    InvalidPresentationError,
    PresentationFormatError,
    ValidationReport,
    bracket_matrix,
    commutator,
    identity,
    inverse,
    load_presentation,
    multiply,
    presentation_from_json,
    presentation_to_json,
    random_element,
    validate,
)

CORPUS = [
    families.heisenberg(),
    families.abelian(3),
    families.discrete_heisenberg(2),
    families.divisor_chain_group((2, 4)),
    families.divisor_chain_group((3, 3, 6)),
]

presentation_and_seed = st.tuples(
    st.sampled_from(CORPUS), st.integers(0, 10**6)
)


def draw3(P, seed):
    rng = random.Random(seed)
    return [random_element(P, 8, rng) for _ in range(3)]


class TestValidate:
    def test_heisenberg_accepted(self):
        assert validate(families.heisenberg()).ok

    def test_rank_deficient_rejected(self):
        report = validate(GroupPresentation(n=1, m=1))
        assert not report.ok
        assert any("rank(c) = 0 < m" in f for f in report.failures)

    def test_abelian_accepted(self):
        assert validate(families.abelian(3)).ok

    def test_out_of_range_pair_reported(self):
        report = validate(GroupPresentation(n=2, m=1, bracket={(0, 5): (1,)}))
        assert not report.ok
        assert any("out of range" in f for f in report.failures)

    def test_wrong_vector_length_reported(self):
        report = validate(GroupPresentation(n=2, m=2, bracket={(0, 1): (1,)}))
        assert not report.ok
        assert any("length 1, expected m = 2" in f for f in report.failures)

    def test_report_is_valid_iff_it_has_no_failures(self):
        assert ValidationReport(()).ok is True
        assert ValidationReport(("x",)).ok is False
        with pytest.raises(AttributeError):
            ValidationReport(("x",)).ok = True

    @pytest.mark.parametrize("doc, failures", [
        ({"n": 1, "m": 1}, ("rank(c) = 0 < m = 1",)),
        ({"n": 2, "m": 1, "brackets": [{"i": 1, "j": 3, "y": [1]},
                                       {"i": 2, "j": 4, "y": [1]}]},
         ("bracket pair (1,3) out of range", "bracket pair (2,4) out of range")),
    ], ids=["rank", "two-pairs"])
    def test_error_message_is_the_joined_failures(self, doc, failures):
        report = validate(presentation_from_json(doc))
        assert report.failures == failures
        assert str(InvalidPresentationError(report)) == "; ".join(failures)


class TestMultiply:
    def test_heisenberg_collection_step(self):
        # x2 x1 = x1 x2 [x2, x1]
        P = families.heisenberg()
        g = multiply(P, GroupElement((0, 1), (0,)), GroupElement((1, 0), (0,)))
        assert g == GroupElement((1, 1), (-1,))

    def test_identity_neutral(self):
        P = families.divisor_chain_group((2, 4))
        g = GroupElement((1, -2, 3, 0), (5,))
        assert multiply(P, g, identity(P)) == g
        assert multiply(P, identity(P), g) == g

    def test_defining_relation_read_back(self):
        # [x_1, x_2] = z^2 in the n=1, d=(2,) family
        P = families.divisor_chain_group((2,))
        x1 = GroupElement((1, 0), (0,))
        x2 = GroupElement((0, 1), (0,))
        assert commutator(P, x1, x2) == GroupElement((0, 0), (2,))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply(families.heisenberg(), GroupElement((1,), ()), GroupElement((1, 0), (0,)))

    @settings(deadline=None, max_examples=150)
    @given(presentation_and_seed)
    def test_associativity(self, ps):
        P, seed = ps
        g, h, k = draw3(P, seed)
        assert multiply(P, multiply(P, g, h), k) == multiply(P, g, multiply(P, h, k))

    @settings(deadline=None, max_examples=80)
    @given(presentation_and_seed)
    def test_abelianization_is_addition(self, ps):
        P, seed = ps
        g, h, _ = draw3(P, seed)
        prod = multiply(P, g, h)
        assert prod.a == tuple(x + y for x, y in zip(g.a, h.a))


class TestInverse:
    def test_identity(self):
        P = families.heisenberg()
        assert inverse(P, identity(P)) == identity(P)

    def test_heisenberg_word(self):
        P = families.heisenberg()
        g = GroupElement((1, 1), (0,))
        assert inverse(P, g) == GroupElement((-1, -1), (-1,))

    def test_central_element(self):
        P = families.heisenberg()
        assert inverse(P, GroupElement((0, 0), (7,))) == GroupElement((0, 0), (-7,))

    @settings(deadline=None, max_examples=100)
    @given(presentation_and_seed)
    def test_two_sided(self, ps):
        P, seed = ps
        g, _, _ = draw3(P, seed)
        assert multiply(P, g, inverse(P, g)) == identity(P)
        assert multiply(P, inverse(P, g), g) == identity(P)


class TestCommutator:
    def test_heisenberg_defining_relation(self):
        P = families.heisenberg()
        g = commutator(P, GroupElement((1, 0), (0,)), GroupElement((0, 1), (0,)))
        assert g == GroupElement((0, 0), (1,))

    def test_self_commutator_trivial(self):
        P = families.divisor_chain_group((2, 4))
        g = GroupElement((1, 2, 3, 4), (5,))
        assert commutator(P, g, g) == identity(P)

    def test_bilinearity_in_first_slot(self):
        P = families.heisenberg()
        g = commutator(P, GroupElement((2, 0), (0,)), GroupElement((0, 1), (0,)))
        assert g == GroupElement((0, 0), (2,))

    @settings(deadline=None, max_examples=100)
    @given(presentation_and_seed)
    def test_matches_word_definition(self, ps):
        P, seed = ps
        g, h, _ = draw3(P, seed)
        word = multiply(P, multiply(P, multiply(P, g, h), inverse(P, g)), inverse(P, h))
        assert commutator(P, g, h) == word

    @settings(deadline=None, max_examples=100)
    @given(presentation_and_seed)
    def test_central(self, ps):
        P, seed = ps
        g, h, _ = draw3(P, seed)
        assert commutator(P, g, h).a == (0,) * P.n
        central = GroupElement((0,) * P.n, g.b)
        assert commutator(P, central, h) == identity(P)


class TestRandomElement:
    def test_deterministic_in_seed(self):
        P = families.divisor_chain_group((2, 4))
        runs = [
            [random_element(P, 10, 7) for _ in range(3)],
            [random_element(P, 10, 7) for _ in range(3)],
        ]
        assert runs[0] == runs[1]

    def test_within_bound(self):
        P = families.heisenberg()
        rng = random.Random(3)
        for _ in range(200):
            g = random_element(P, 2, rng)
            assert all(-2 <= x <= 2 for x in g.a + g.b)

    def test_distinct_seeds_differ(self):
        P = families.heisenberg()
        a = [random_element(P, 10, "s1:%d" % t) for t in range(100)]
        b = [random_element(P, 10, "s2:%d" % t) for t in range(100)]
        assert a != b

    def test_bound_precondition(self):
        with pytest.raises(ValueError):
            random_element(families.heisenberg(), 0, 0)

    def test_draws_are_pinned(self):
        # the exponents a seeded generator yields, a then b, element by element
        P = families.divisor_chain_group((2, 4))
        rng = random.Random("draws")
        assert [(g.a, g.b) for g in (random_element(P, 7, rng)
                                     for _ in range(3))] == [
            ((0, 4, 3, -2), (1,)), ((-4, 7, -6, 6), (-3,)),
            ((5, -2, -3, 7), (2,))]


class TestPresentationJson:
    def test_round_trip(self):
        P = families.divisor_chain_group((2, 4))
        doc = presentation_to_json(P)
        assert presentation_from_json(doc) == P

    def test_heisenberg_document(self):
        doc = presentation_to_json(families.heisenberg())
        assert doc == {"n": 2, "m": 1, "brackets": [{"i": 1, "j": 2, "y": [1]}]}

    def test_missing_field(self):
        with pytest.raises(PresentationFormatError, match="missing field 'm'"):
            presentation_from_json({"n": 2})

    def test_bool_is_not_a_count(self):
        with pytest.raises(PresentationFormatError, match="'n'"):
            presentation_from_json({"n": True, "m": 0})

    def test_duplicate_pair(self):
        doc = {"n": 2, "m": 1,
               "brackets": [{"i": 1, "j": 2, "y": [1]}, {"i": 1, "j": 2, "y": [2]}]}
        with pytest.raises(PresentationFormatError, match="duplicate bracket pair"):
            presentation_from_json(doc)

    def test_vector_length_checked(self):
        doc = {"n": 2, "m": 2, "brackets": [{"i": 1, "j": 2, "y": [1]}]}
        with pytest.raises(PresentationFormatError, match="length 1, expected m = 2"):
            presentation_from_json(doc)

    def test_malformed_json_text(self):
        with pytest.raises(PresentationFormatError, match="malformed JSON"):
            load_presentation("{not json")

    def test_repeated_key_is_refused(self):
        # a key given twice is refused at any depth, not read as its last value
        text = '{"n": 2, "m": 1, "brackets": [{"i": 1, "j": 2, "y": [0]}]}'
        assert load_presentation(text) == GroupPresentation(2, 1, {(0, 1): (0,)})
        for doc, key in (('{"n": 2, "n": 2, "m": 0}', "n"),
                         (text.replace('"y": [0]', '"y": [1], "y": [2]'), "y")):
            with pytest.raises(PresentationFormatError,
                               match="malformed JSON: repeated key '%s'" % key):
                load_presentation(doc)

    def test_missing_pairs_are_zero(self):
        P = presentation_from_json({"n": 3, "m": 1, "brackets": [{"i": 1, "j": 2, "y": [1]}]})
        assert dict(P.bracket) == {(0, 1): (1,)}
        # columns (1,2), (1,3), (2,3): the absent pairs give zero columns
        assert bracket_matrix(P).to_rows() == [[1, 0, 0]]


class TestFamilies:
    def test_divisor_chain_shape(self):
        P = families.divisor_chain_group((2, 4))
        assert (P.n, P.m) == (4, 1)
        assert len(P.bracket) == 2

    def test_heisenberg_is_unit_chain(self):
        assert families.heisenberg() == families.divisor_chain_group((1,))

    def test_abelian_has_no_brackets(self):
        P = families.abelian(3)
        assert (P.n, P.m) == (3, 0)
        assert not P.bracket

    def test_random_presentation_deterministic(self):
        a = families.random_presentation(4, 2, 5, seed=11)
        b = families.random_presentation(4, 2, 5, seed=11)
        assert a == b
        assert validate(a).ok

    def test_random_presentation_is_validated_once(self, monkeypatch):
        # the draw that passes keeps its report, which h2's check then reads
        calls = []
        real = grouplaw.validate

        def counted(P):
            calls.append(P)
            return real(P)

        monkeypatch.setattr(grouplaw, "validate", counted)
        P = families.random_presentation(11, 4, 5, 2026)
        h2(P)
        assert len(calls) == 1 and calls[0] is P

    def test_random_presentation_unsatisfiable(self, monkeypatch):
        # m > C(n,2) can never reach rank m, so it is refused before any draw
        def no_draw(P):
            raise AssertionError("a presentation was drawn and validated")

        monkeypatch.setattr(grouplaw, "validate", no_draw)
        with pytest.raises(ValueError, match=r"n=2, m=2: .* C\(n,2\) = 1 < m"):
            families.random_presentation(2, 2, 5, seed=0)
        with pytest.raises(ValueError, match=r"n=19, m=172: .* C\(n,2\) = 171 < m"):
            families.random_presentation(19, 172, 5, seed=0)

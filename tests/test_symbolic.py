"""Exact checks of the symbolic layer: adding machine, reversing maps, order."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ndslab.symbolic import (
    ONE,
    ZERO,
    Block,
    Code,
    alpha,
    all_blocks,
    all_codes,
    canonicalize,
    eta,
    eta_orbit,
    evaluate_e,
    tau,
    theta,
)


def codes_strategy(max_depth=9):
    return st.builds(
        canonicalize,
        st.text(alphabet="01", max_size=max_depth),
        st.integers(min_value=0, max_value=1),
    )


def blocks_strategy(max_len=6):
    return st.builds(Block, st.text(alphabet="01", min_size=1, max_size=max_len))


class TestCanonicalize:
    def test_trailing_zeros_absorbed(self):
        assert canonicalize("100", 0) == Code(1)

    def test_already_canonical(self):
        assert canonicalize("", 1) == ONE

    def test_trailing_ones_absorbed(self):
        assert canonicalize("0111", 1) == Code(-2)

    def test_rejects_noncanonical_direct_construction(self):
        # a code is its int orbit index, so every int is canonical and
        # nothing else is a code
        for bad in ("10", 1.0, True):
            with pytest.raises(ValueError):
                Code(bad)

    @pytest.mark.parametrize("tail", [1.0, True, 2, -1])
    def test_rejects_tails_that_are_not_int_bits(self, tail):
        with pytest.raises(ValueError):
            canonicalize("1", tail)

    @pytest.mark.parametrize(
        "build",
        [lambda: Block(["1"]), lambda: Code(["1", "0"]), lambda: canonicalize(("1",), 0)],
        ids=["block", "code", "canonicalize"],
    )
    def test_rejects_words_that_are_not_strings(self, build):
        # a list of binary letters passes the letter test, so the type is checked
        with pytest.raises(ValueError):
            build()

    @given(st.text(alphabet="01", max_size=12), st.integers(0, 1))
    def test_same_expansion(self, block, tail):
        c = canonicalize(block, tail)
        assert c.prefix(len(block) + 2) == block + str(tail) * 2


class TestAddingMachine:
    def test_published_orbit_segment(self):
        # ... 001|1 -> 101|1 -> 0|1 -> |1 -> |0 -> 1|0 -> 01|0 -> 11|0 ...
        chain = [
            canonicalize("001", 1),
            canonicalize("101", 1),
            canonicalize("0", 1),
            ONE,
            ZERO,
            canonicalize("1", 0),
            canonicalize("01", 0),
            canonicalize("11", 0),
        ]
        for a, b in zip(chain, chain[1:]):
            assert alpha(a) == b
            assert Code(b.index - 1) == a

    def test_rollover(self):
        assert alpha(ONE) == ZERO
        assert Code(ZERO.index - 1) == ONE

    def test_inverse_exhaustive_depth_12(self):
        for c in all_codes(12):
            assert Code(alpha(c).index - 1) == c
            assert alpha(Code(c.index - 1)) == c

    def test_orbit_index_increment_depth_10(self):
        for c in all_codes(10):
            assert alpha(c).index == c.index + 1

    def test_orbit_index_examples(self):
        assert ZERO.index == 0
        assert ONE.index == -1
        assert canonicalize("11", 0).index == 3

    @given(st.integers(min_value=-300, max_value=300))
    def test_code_at_index_roundtrip(self, j):
        c = Code(j)
        assert canonicalize(c.block, c.tail).index == j

    @given(st.integers(min_value=-100, max_value=100), st.integers(-20, 20))
    def test_index_is_equivariant(self, j, k):
        c = Code(j)
        for _ in range(abs(k)):
            c = alpha(c) if k >= 0 else Code(c.index - 1)
        assert c == Code(j + k)


class TestTau:
    def test_published_flip(self):
        c = canonicalize("101" + "110100", 0)
        t = tau(Block("101"), c)
        assert t.prefix(9) == "101001011"

    def test_prefix_mismatch_is_identity(self):
        assert tau(Block("0"), canonicalize("1", 0)) == canonicalize("1", 0)

    def test_flip_into_constant_tail(self):
        # expansion 1,0,0,... flips after one symbol to 1,1,1,...
        assert tau(Block("1"), canonicalize("1", 0)) == ONE

    @given(blocks_strategy(), codes_strategy())
    def test_involution(self, n, c):
        assert tau(n, tau(n, c)) == c

    @given(blocks_strategy(), codes_strategy())
    def test_preserves_cylinder_membership(self, n, c):
        assert tau(n, c).starts_with(n.word) == c.starts_with(n.word)


def _period(n: Block, c: Code) -> int:
    """Least p >= 1 with eta^p(c) == c, read off one 64-step orbit.

    The periods of the codes of depth <= 6 under blocks of length <= 4 are
    at most 32; a longer one raises ValueError.
    """
    return eta_orbit(n, c, 64).index(c, 1)


class TestEta:
    def test_on_zero(self):
        assert eta(Block("1"), ZERO) == canonicalize("1", 0)

    def test_two_cycle(self):
        assert eta(Block("1"), canonicalize("1", 0)) == ZERO

    @pytest.mark.parametrize("k", range(1, 7))
    def test_orbit_closes_for_every_block(self, k):
        for w in all_blocks(k):
            orbit = eta_orbit(w, ZERO, 2 ** k)
            assert orbit[-1] == ZERO
            assert len(set(orbit[:-1])) == 2 ** k
            inside = [c for c in orbit[:-1] if c.starts_with(w.word)]
            assert inside == [canonicalize(w.word, 0)]

    @pytest.mark.parametrize("k", range(1, 5))
    def test_periods_are_multiples(self, k):
        # every code of depth <= 6 has eta-period 2^k (on the zero-code
        # orbit) or a proper multiple of it
        for w in all_blocks(k):
            base_orbit = set(eta_orbit(w, ZERO, 2 ** k - 1))
            for c in all_codes(6):
                p = _period(w, c)
                assert p % 2 ** k == 0
                if p == 2 ** k:
                    pass  # may or may not be the base orbit: check consistency
                if c in base_orbit:
                    assert p == 2 ** k
                else:
                    assert p >= 2 ** k

    def test_period_multiplier_exceeds_one_off_base_orbit(self):
        w = Block("1")
        assert _period(w, canonicalize("01", 0)) == 4  # m = 2


class TestEvaluation:
    @pytest.mark.parametrize(
        "word,value", [("0", 0), ("11", 3), ("01", 2), ("1", 1), ("001", 4)]
    )
    def test_examples(self, word, value):
        assert evaluate_e(Block(word)) == value


class TestTheta:
    def test_endpoints(self):
        assert theta(ZERO) == 0
        assert theta(ONE) == 1

    def test_examples(self):
        assert theta(canonicalize("1", 0)) == Fraction(2, 3)
        assert theta(canonicalize("0", 1)) == Fraction(1, 3)

    @given(codes_strategy(10))
    def test_series_truncation_brackets_value(self, c):
        # independent oracle: partial sums of sum 2 c_i / 3^i
        n = c.depth + 30
        partial = sum(Fraction(2 * int(ch), 3 ** i) for i, ch in enumerate(c.prefix(n), start=1))
        tail_max = Fraction(1, 3 ** n)
        assert partial <= theta(c) <= partial + tail_max

    def test_strictly_increasing_depth_8(self):
        cs = all_codes(8)
        ths = [theta(c) for c in cs]
        assert all(a < b for a, b in zip(ths, ths[1:]))
        for a, b in zip(cs, cs[1:]):
            assert a.prefix(9) < b.prefix(9)

    @given(codes_strategy(8), codes_strategy(8))
    def test_compare_matches_theta(self, a, b):
        # codes of depth <= 8 differ within 9 letters
        pa, pb = a.prefix(9), b.prefix(9)
        lhs = (pa > pb) - (pa < pb)
        rhs = (theta(a) > theta(b)) - (theta(a) < theta(b))
        assert lhs == rhs

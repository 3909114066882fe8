"""Differential tests: the word-based symbolic layer against per-symbol oracles.

Binary words and their values have one home in ``symbolic`` (``Code.prefix``,
``word_to_int``, ``int_to_word``), and so do code positions
(``position`` and its inverse ``code_at``).  Each rewritten function is
compared here with the per-symbol version in ``oracles`` on the constant
codes, codes of depth 0-14, orbit indices around powers of two, and codes
deeper than the atlas.
A ``Code`` is its orbit index: its depth, block, tail, prefixes, cylinder
tests and string are compared with the words that ``oracles.code_words``
reads off the index with a bit loop.  ``alpha``, the index shift
``Code(c.index + s)``, ``tau``, ``position`` and ``all_codes`` read a code
as a number (its orbit index, or its atlas position) and are compared with
the carry loop, the per-symbol flip, the prefix read as a binary numeral
and the sorted level-by-level listing they replaced, and
``analysis._split_depth`` with the first differing letter.  ``position``
and ``code_at`` are checked to be inverse at depths 0-13 on codes at the
edge of the depth, where ``position`` must refuse the deeper ones.
The symbol-by-symbol comparison of expansions is the order that ``theta``
must keep.
"""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from ndslab.analysis import _split_depth
from ndslab.blowup import build_atlas
from ndslab.symbolic import (
    ONE,
    ZERO,
    Block,
    Code,
    alpha,
    all_blocks,
    all_codes,
    block_successor,
    canonicalize,
    code_at,
    int_to_word,
    position,
    tau,
    theta,
    word_to_int,
)

codes = st.one_of(
    st.sampled_from([ZERO, ONE]),
    st.builds(canonicalize, st.text(alphabet="01", max_size=14), st.integers(0, 1)),
)
blocks = st.builds(Block, st.text(alphabet="01", min_size=1, max_size=8))
near_powers = st.builds(
    lambda sign, k, off: sign * 2 ** k + off,
    st.sampled_from([1, -1]),
    st.integers(0, 40),
    st.sampled_from([-1, 0, 1]),
)
indices = st.one_of(st.integers(-(2 ** 16), 2 ** 16), near_powers)
wide_indices = st.one_of(st.integers(-(2 ** 40), 2 ** 40), near_powers)
# depth 0-40 words with constant runs, so the carry crosses long blocks and
# reaches the tail
runs = st.builds(str.__mul__, st.sampled_from("01"), st.integers(1, 40))
carry_words = st.lists(runs, max_size=6).map(lambda parts: "".join(parts)[:40])
carry_codes = st.builds(canonicalize, carry_words, st.integers(0, 1))


def _bits(m: int, k: int) -> str:
    return "".join(str((m >> i) & 1) for i in range(k))


@pytest.fixture(scope="module")
def atlas6():
    return build_atlas(6, Fraction(1, 2), 4)


def test_empty_word_edge_cases():
    # the two Python facts the word helpers guard against
    assert format(0, "00b") == "0"
    with pytest.raises(ValueError):
        int("", 2)
    assert int_to_word(0, 0) == ""
    assert word_to_int("") == 0


@given(st.text(alphabet="01", max_size=20))
def test_word_to_int_matches_weighted_sum(word):
    assert word_to_int(word) == sum(2 ** i for i, ch in enumerate(word) if ch == "1")
    assert int_to_word(word_to_int(word), len(word)) == word


@given(st.integers(0, 20), st.data())
def test_int_to_word_matches_bit_loop(k, data):
    m = data.draw(st.integers(0, 2 ** k - 1))
    assert int_to_word(m, k) == _bits(m, k)
    for bad in (-1, 2 ** k):
        with pytest.raises(ValueError):
            int_to_word(bad, k)


@given(codes, st.integers(0, 20))
def test_prefix_matches_symbols(c, n):
    assert c.prefix(n) == "".join(str(oracles.symbol(c, i)) for i in range(1, n + 1))


def test_prefix_rejects_negative_length():
    with pytest.raises(ValueError):
        ZERO.prefix(-1)


@given(codes)
def test_theta_matches_fraction_sum(c):
    th = theta(c)
    ref = oracles.theta(c)
    assert (th.numerator, th.denominator) == (ref.numerator, ref.denominator)


@given(indices)
@example(0)
@example(-1)
def test_code_at_index_matches_bit_loop(j):
    assert Code(j) == canonicalize(*oracles.code_words(j))


@given(wide_indices)
@example(0)
@example(-1)
@example(2 ** 40 - 1)
@example(-(2 ** 40))
def test_code_matches_bit_loop_words(j):
    c = Code(j)
    block, tail = oracles.code_words(j)
    assert (c.depth, c.block, c.tail) == (len(block), block, tail)
    assert str(c) == f"{block}|{tail}"
    assert canonicalize(c.block, c.tail) == c
    for n in range(c.depth + 4):
        word = oracles.prefix(c, n)
        assert c.prefix(n) == word
        assert c.starts_with(word)
        if n:
            assert not c.starts_with(word[:-1] + "10"[int(word[-1])])


def test_all_codes_12_digest():
    # recorded while a Code still stored its (block, tail) words
    text = "\n".join(map(str, all_codes(12)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b85f6c329601f3e543f5f959bcc606475991f3371ffabc8cf71ecae86c2e0ee1"
    )


@given(wide_indices, wide_indices)
@example(0, -1)
@example(2 ** 40, -(2 ** 40))
def test_split_depth_matches_first_differing_letter(i, j):
    a, b = Code(i), Code(j)
    if i == j:
        with pytest.raises(ValueError):
            _split_depth(a, b)
    else:
        assert _split_depth(a, b) == oracles.split_depth(a, b)


@given(blocks, codes)
def test_tau_matches_per_symbol(n, c):
    assert tau(n, c) == oracles.tau(n, c)


@given(codes, codes)
def test_compare_matches_expansions(a, b):
    assert (theta(a) > theta(b)) - (theta(a) < theta(b)) == oracles.compare(a, b)


@given(codes)
@example(canonicalize("0000001", 0))
def test_locate_code_matches_theta_bisect(atlas6, c):
    want = oracles.locate_code(atlas6, c)
    if c.depth > atlas6.depth:
        assert want is None
        with pytest.raises(KeyError):
            position(c, atlas6.depth)
        with pytest.raises(KeyError):
            atlas6.interval_of(c)
    else:
        assert atlas6.interval_of(c) == atlas6.intervals[position(c, atlas6.depth)] == want


def test_locate_code_every_atlas_code(atlas6):
    assert [position(c, atlas6.depth) for c in atlas6.codes] == list(range(atlas6.size))
    for c, iv in zip(atlas6.codes, atlas6.intervals):
        assert atlas6.interval_of(c) == iv == oracles.locate_code(atlas6, c)


@given(carry_codes)
@example(ZERO)
@example(ONE)
def test_alpha_matches_carry_loop(c):
    assert alpha(c) == oracles.alpha(c, 1)
    assert Code(c.index - 1) == oracles.alpha(c, -1)


@given(codes, st.integers(-40, 40))
def test_index_shift_matches_repeated_carry_loop(c, steps):
    ref = c
    for _ in range(abs(steps)):
        ref = oracles.alpha(ref, 1 if steps >= 0 else -1)
    assert Code(c.index + steps) == ref


@given(st.integers(0, 13), st.sampled_from([1, -1]), st.integers(-2, 2))
@example(0, 1, -1)
@example(0, -1, -1)
@example(13, 1, 0)
@example(13, -1, 0)
def test_position_round_trip_at_the_depth_edge(depth, sign, off):
    # the codes of depth <= D are the orbit indices -2^D <= j < 2^D
    j = sign * 2 ** depth + off
    c = Code(j)
    if not -(2 ** depth) <= j < 2 ** depth:
        with pytest.raises(KeyError):
            position(c, depth)
    else:
        i = position(c, depth)
        assert i == int(oracles.prefix(c, depth + 1), 2)
        assert code_at(i, depth) == c


@pytest.mark.parametrize("depth", range(0, 14))
def test_all_codes_matches_sorted_listing(depth):
    assert all_codes(depth) == oracles.all_codes(depth)


def test_all_codes_rejects_negative_depth():
    with pytest.raises(ValueError):
        all_codes(-1)


@pytest.mark.parametrize("k", range(1, 9))
def test_block_enumeration_matches_bit_loop(k):
    words = [b.word for b in all_blocks(k)]
    assert words == [_bits(m, k) for m in range(2 ** k)]
    succ = [block_successor(Block(w)).word for w in words]
    assert succ == words[1:] + words[:1]


@pytest.mark.parametrize("depth", range(0, 9))
def test_all_codes_in_theta_order(depth):
    cs = all_codes(depth)
    assert len(set(cs)) == len(cs) == 2 ** (depth + 1)
    assert cs == sorted(cs, key=oracles.theta)

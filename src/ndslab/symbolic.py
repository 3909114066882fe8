"""Exact symbolic dynamics on eventually-constant binary sequences.

A point of the binary shift space that ends in a constant tail is stored as a
``Code``: a finite block of symbols followed by an infinite run of a single
tail bit.  All points produced by the constructions in this package live in
this countable set, so every operation here is exact and terminating.

Conventions used throughout:

* sequences are one-sided, indexed from position 1;
* the adding machine ``alpha`` adds 1 at position 1 with carry propagating
  to the right (into the tail when necessary);
* ``theta`` embeds codes into the Cantor middle-third set, order-isomorphic
  with the lexicographic order on expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal

Bit = int  # 0 or 1


def _check_bit(b: int) -> int:
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return b


def _check_word(word: str) -> str:
    # a list of letters would pass the letter test and then break str methods
    if not isinstance(word, str) or any(ch not in "01" for ch in word):
        raise ValueError(f"binary word expected, got {word!r}")
    return word


def word_to_int(word: str) -> int:
    """Value of a binary word, position i weighted by 2^(i-1); "" is 0."""
    return int(word[::-1] or "0", 2)


def int_to_word(m: int, length: int) -> str:
    """The ``length``-letter word of value ``m``: inverse of :func:`word_to_int`."""
    if not 0 <= m < 1 << length:
        raise ValueError(f"{m} does not fit in {length} binary letters")
    return format(m, f"0{length}b")[::-1] if length else ""  # format(0, "00b") is "0"


@dataclass(frozen=True, order=False)
class Code:
    """An eventually-constant binary sequence ``block + tail^inf``.

    The canonical form (enforced by :func:`canonicalize`) requires the last
    letter of ``block`` to differ from ``tail``; the all-zero and all-one
    sequences have an empty block.  Two codes denote the same sequence iff
    their canonical forms are equal, so dataclass equality is semantic
    equality.
    """

    block: str
    tail: Bit

    def __post_init__(self) -> None:
        _check_word(self.block)
        _check_bit(self.tail)
        if self.block and int(self.block[-1]) == self.tail:
            raise ValueError(
                f"non-canonical code: block {self.block!r} ends with tail bit {self.tail}"
            )

    @property
    def depth(self) -> int:
        """Length of the canonical block (0 for the two constant sequences)."""
        return len(self.block)

    def symbol(self, i: int) -> Bit:
        """The i-th letter of the expansion, positions starting at 1."""
        if i < 1:
            raise ValueError("positions start at 1")
        if i <= len(self.block):
            return int(self.block[i - 1])
        return self.tail

    def prefix(self, n: int) -> str:
        """First ``n`` letters of the infinite expansion, as a word."""
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        return self.block[:n] + str(self.tail) * (n - len(self.block))

    def expand(self, n: int) -> tuple[Bit, ...]:
        """First ``n`` letters of the infinite expansion."""
        return tuple(map(int, self.prefix(n)))

    def starts_with(self, word: str) -> bool:
        """Whether the expansion begins with ``word`` (cylinder membership)."""
        _check_word(word)
        return self.prefix(len(word)) == word

    def __str__(self) -> str:
        return f"{self.block}|{self.tail}"


ZERO = Code("", 0)   # the all-zero sequence
ONE = Code("", 1)    # the all-one sequence


@dataclass(frozen=True)
class Block:
    """A finite binary word of length >= 1, the code of a cylinder."""

    word: str

    def __post_init__(self) -> None:
        _check_word(self.word)
        if len(self.word) < 1:
            raise ValueError("a block has length at least 1")

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return self.word


def canonicalize(block: str, tail: int) -> Code:
    """Return the canonical Code for ``block + tail^inf``.

    Trailing letters of the block equal to the tail bit are absorbed into
    the tail.
    """
    _check_word(block)
    _check_bit(tail)
    cut = len(block)
    while cut > 0 and int(block[cut - 1]) == tail:
        cut -= 1
    return Code(block[:cut], tail)


def alpha(c: Code, direction: Literal[1, -1] = 1) -> Code:
    """The adding machine (binary +1 with carry), or its inverse.

    Adding: the first 0 in the expansion flips to 1 and everything before it
    flips to 0; on the all-one sequence the carry runs forever and yields the
    all-zero sequence.  Subtracting is the mirror image.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    # Adding looks for the first 0, subtracting for the first 1; positions
    # before the pivot all flip to the carry digit.
    pivot = "0" if direction == 1 else "1"
    fill = "0" if direction == 1 else "1"
    for i, ch in enumerate(c.block):
        if ch == pivot:
            new_block = fill * i + ("1" if direction == 1 else "0") + c.block[i + 1 :]
            return canonicalize(new_block, c.tail)
    if str(c.tail) == pivot:
        # carry stops at the first tail position
        new_block = fill * c.depth + ("1" if direction == 1 else "0")
        return canonicalize(new_block, c.tail)
    # No pivot anywhere: the constant sequence rolls over to the other one.
    return Code("", 1 - c.tail)


def alpha_iter(c: Code, steps: int) -> Code:
    """alpha applied ``steps`` times (negative steps use the inverse)."""
    d = 1 if steps >= 0 else -1
    for _ in range(abs(steps)):
        c = alpha(c, d)
    return c


_FLIP = str.maketrans("01", "10")


def tau(n: Block, c: Code) -> Code:
    """The 0-1-after-k-symbols-reversing map for the cylinder of ``n``.

    Outside the cylinder it is the identity; inside, the first k symbols are
    kept and every later symbol is complemented (the tail bit flips).
    """
    k = len(n)
    if not c.starts_with(n.word):
        return c
    return canonicalize(c.prefix(k) + c.block[k:].translate(_FLIP), 1 - c.tail)


def eta(n: Block, c: Code) -> Code:
    """One step of the reversing-then-adding dynamics: alpha after tau."""
    return alpha(tau(n, c))


def eta_orbit(n: Block, c: Code, steps: int) -> list[Code]:
    """The points c, eta(c), ..., eta^steps(c)."""
    out = [c]
    for _ in range(steps):
        c = eta(n, c)
        out.append(c)
    return out


def evaluate_e(n: Block) -> int:
    """Binary evaluation of a block, position i weighted by 2^(i-1)."""
    return word_to_int(n.word)


def theta(c: Code) -> Fraction:
    """Increasing embedding into the Cantor middle-third set.

    theta(c) = sum_i 2*c_i / 3^i; the constant tail contributes a geometric
    series with closed form tail/3^depth.  Over the denominator 3^depth the
    head is the block read as a base-3 numeral with digit 2 for each 1.
    """
    head = int(c.block.replace("1", "2") or "0", 3)
    return Fraction(head + c.tail, 3 ** c.depth)


def orbit_index(c: Code) -> int:
    """The unique j with alpha^j(all-zeros) == c.

    Tail-0 codes are the forward orbit (j = e(block) >= 0), tail-1 codes the
    backward orbit (j = e(block) - 2^depth < 0).
    """
    return word_to_int(c.block) - c.tail * 2 ** c.depth


def code_at_index(j: int) -> Code:
    """Inverse of :func:`orbit_index`."""
    if j >= 0:
        return canonicalize(int_to_word(j, j.bit_length()), 0)
    # smallest depth d >= 1 with 2^d >= -j; the block encodes 2^d + j
    d = max(1, (-j - 1).bit_length())
    return canonicalize(int_to_word(2 ** d + j, d), 1)


def compare(a: Code, b: Code) -> int:
    """Lexicographic comparison of expansions: -1, 0 or +1.

    Distinct canonical codes always differ within max(depth)+1 symbols.
    """
    n = max(a.depth, b.depth) + 1
    pa, pb = a.prefix(n), b.prefix(n)
    return (pa > pb) - (pa < pb)


def all_codes(max_depth: int) -> list[Code]:
    """All canonical codes of depth <= max_depth, sorted by theta.

    There are exactly 2^(max_depth+1) of them.
    """
    codes: list[Code] = [ZERO, ONE]
    for d in range(1, max_depth + 1):
        for head in range(2 ** (d - 1)):
            bits = int_to_word(head, d - 1)
            for tail in (0, 1):
                codes.append(Code(bits + str(1 - tail), tail))
    width = max_depth + 1
    codes.sort(key=lambda c: c.prefix(width))
    return codes


def all_blocks(k: int) -> Iterator[Block]:
    """All 2^k binary blocks of length k, in evaluation order."""
    for m in range(2 ** k):
        yield Block(int_to_word(m, k))


def block_successor(w: Block) -> Block:
    """The induced adding-machine step on k-blocks: evaluation + 1 mod 2^k.

    This is the cylinder-level action of alpha: the first k symbols of the
    image depend only on the first k symbols of the argument.
    """
    k = len(w)
    return Block(int_to_word((evaluate_e(w) + 1) % 2 ** k, k))


def eta_period(n: Block, c: Code, max_steps: int = 1 << 14) -> int:
    """Least p >= 1 with eta^p(c) == c, searched up to ``max_steps``."""
    x = c
    for p in range(1, max_steps + 1):
        x = eta(n, x)
        if x == c:
            return p
    raise RuntimeError(f"no eta-period of {c} within {max_steps} steps")

"""Exact symbolic dynamics on eventually-constant binary sequences.

A point of the binary shift space that ends in a constant tail is stored as a
``Code``: a finite block of symbols followed by an infinite run of a single
tail bit.  All points produced by the constructions in this package live in
this countable set, so every operation here is exact and terminating.

Conventions used throughout:

* sequences are one-sided, indexed from position 1;
* a code is a 2-adic integer, position i weighing 2^(i-1): tail 0 gives
  its orbit index j = e(block) >= 0, tail 1 gives j = e(block) - 2^depth < 0,
  and the adding machine ``alpha`` (binary +1, carry running to the right)
  is j -> j + 1;
* ``theta`` embeds codes into the Cantor middle-third set, order-isomorphic
  with the lexicographic order on expansions; codes of depth <= D differ
  within D+1 letters, so their order is that of their (D+1)-prefixes read
  as binary numerals, first letter most significant.
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
    """The canonical Code for ``block + tail^inf``: trailing tail letters join the tail."""
    _check_word(block)
    _check_bit(tail)
    return Code(block.rstrip("01"[tail]), tail)


def alpha(c: Code, direction: Literal[1, -1] = 1) -> Code:
    """The adding machine (binary +1 with carry) or its inverse: orbit index + direction."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    return code_at_index(orbit_index(c) + direction)


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
    tail = int(j < 0)
    d = (~j if tail else j).bit_length()  # least d with -2^d <= j < 2^d
    return Code(int_to_word(j % 2 ** d, d), tail)


def all_codes(max_depth: int) -> list[Code]:
    """All 2^(max_depth+1) canonical codes of depth <= max_depth, sorted by theta.

    The code at position i has the (max_depth+1)-letter binary numeral of i
    as its prefix, and that prefix's last letter as its tail.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    width = max_depth + 1
    words = (format(i, f"0{width}b") for i in range(2 ** width))
    return [Code(w.rstrip(w[-1]), int(w[-1])) for w in words]


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

"""Exact symbolic dynamics on eventually-constant binary sequences.

A point of the binary shift space that ends in a constant tail, a finite
block of symbols followed by an infinite run of a single tail bit, is a
``Code``.  All points produced by the constructions in this package live in
this countable set, so every operation here is exact and terminating.

Conventions used throughout:

* sequences are one-sided, indexed from position 1;
* a code is a 2-adic integer, position i weighing 2^(i-1), and it is stored
  as that integer, its orbit index j: tail 0 gives j = e(block) >= 0, tail 1
  gives j = e(block) - 2^depth < 0.  The adding machine ``alpha`` (binary
  +1, carry running to the right) is j -> j + 1, and ``tau`` is one XOR;
* ``theta`` embeds codes into the Cantor middle-third set, order-isomorphic
  with the lexicographic order on expansions; codes of depth <= D differ
  within D+1 letters, so their order is that of their (D+1)-prefixes read
  as binary numerals, first letter most significant.  That numeral is the
  code's place (``position``; ``code_at`` inverts it), the orbit index mod
  2^(D+1) read backwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

Bit = int  # 0 or 1


def _check_bit(b: int) -> int:
    if type(b) is not int or b not in (0, 1):
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


@dataclass(frozen=True)
class Code:
    """An eventually-constant binary sequence, stored as its orbit index.

    The sequence c_1 c_2 ... is the 2-adic integer sum c_i 2^(i-1): a tail
    of zeros gives an index >= 0, a tail of ones an index < 0.  Every int is
    exactly one such sequence, so dataclass equality is semantic equality.
    ``block`` and ``tail`` are the canonical form: the shortest block after
    which the sequence is constant, and that constant.
    """

    index: int

    def __post_init__(self) -> None:
        if type(self.index) is not int:  # a bool is an int too, but no code
            raise ValueError(f"a code is an int orbit index, got {self.index!r}")

    @property
    def tail(self) -> Bit:
        return int(self.index < 0)

    @property
    def depth(self) -> int:
        """Length of the canonical block (0 for the two constant sequences)."""
        return (~self.index if self.index < 0 else self.index).bit_length()

    @property
    def block(self) -> str:
        return self.prefix(self.depth)

    def prefix(self, n: int) -> str:
        """First ``n`` letters of the infinite expansion, as a word."""
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        return int_to_word(self.index % (1 << n), n)  # % fills in the tail letters

    def starts_with(self, word: str) -> bool:
        """Whether the expansion begins with ``word`` (cylinder membership)."""
        return word_to_int(_check_word(word)) == self.index % (1 << len(word))

    def __str__(self) -> str:
        return f"{self.block}|{self.tail}"


ZERO = Code(0)   # the all-zero sequence
ONE = Code(-1)   # the all-one sequence


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
    """The Code of ``block + tail^inf``."""
    _check_word(block)
    _check_bit(tail)
    return Code(word_to_int(block) - (tail << len(block)))


def alpha(c: Code) -> Code:
    """The adding machine, binary +1 with carry: orbit index + 1."""
    return Code(c.index + 1)


def tau(n: Block, c: Code) -> Code:
    """The 0-1-after-k-symbols-reversing map for the cylinder of ``n``.

    Outside the cylinder it is the identity; inside, the first k symbols are
    kept and every later symbol is complemented (the tail bit flips): the
    index is XORed with -2^k, whose ones start at position k+1.
    """
    if not c.starts_with(n.word):
        return c
    return Code(c.index ^ -(1 << len(n)))


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


def _reverse(i: int, width: int) -> int:
    """The width-letter binary numeral of i read backwards.

    It takes a code's place in theta order to its orbit index mod 2^width, and back.
    """
    return int(format(i, f"0{width}b")[::-1], 2)


def position(c: Code, max_depth: int) -> int:
    """The place of ``c`` among the codes of depth <= max_depth in theta order.

    It is the (max_depth+1)-prefix read as a binary numeral, first letter most
    significant: the orbit index mod 2^(max_depth+1) read backwards.  A
    deeper code has no place and raises KeyError.
    """
    if c.depth > max_depth:
        raise KeyError(f"code {c} exceeds depth {max_depth}")
    width = max_depth + 1
    return _reverse(c.index % (1 << width), width)


def code_at(i: int, max_depth: int) -> Code:
    """The code at place i: its orbit index is i read backwards, less 2^(max_depth+1) at tail 1."""
    width = max_depth + 1
    return Code(_reverse(i, width) - ((i & 1) << width))


def all_codes(max_depth: int) -> list[Code]:
    """All 2^(max_depth+1) canonical codes of depth <= max_depth, sorted by theta.

    The code at place i is ``code_at(i, max_depth)``, written in line to save
    a call per code.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    width = max_depth + 1
    return [Code(_reverse(i, width) - ((i & 1) << width)) for i in range(1 << width)]


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

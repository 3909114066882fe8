"""Exact continuous piecewise-linear self-maps of [0,1].

Breakpoints and values are rationals; evaluation, composition and the sup
metric are all computed exactly.  A float copy of the breakpoints only
locates a value among them, and integer comparisons settle it.  Long
products of maps are intentionally not composed symbolically (the
breakpoint count multiplies); orbits should be iterated pointwise via the
dynamics module instead.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import merge
from itertools import groupby
from math import gcd
from typing import Iterable, Sequence

ZERO_F = Fraction(0)
ONE_F = Fraction(1)


def _as_frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class PLMap:
    """A continuous map [0,1] -> [0,1], linear between consecutive breakpoints.

    ``xs`` is strictly increasing with xs[0] == 0 and xs[-1] == 1; ``ys`` are
    the values at the breakpoints, all within [0,1].  Instances are kept in
    canonical form: no interior breakpoint is collinear with its neighbours.
    Use :func:`pl_from_points` to build one from raw data.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("need matching xs/ys with at least two points")
        if self.xs[0] != 0 or self.xs[-1] != 1:
            raise ValueError("domain must be exactly [0,1]")
        if any(
            a.numerator * b.denominator >= b.numerator * a.denominator
            for a, b in zip(self.xs, self.xs[1:])
        ):
            raise ValueError("breakpoints must increase strictly")
        if any(y.numerator < 0 or y.numerator > y.denominator for y in self.ys):
            raise ValueError("values must lie in [0,1]")

    @cached_property
    def float_xs(self) -> array:
        """``float(xs)``, built on first use; it only locates pieces."""
        return array("d", map(float, self.xs))

    @cached_property
    def lines(self) -> dict[int, tuple[int, int, int]]:
        """Piece index -> the piece's integer line (see :func:`_line`), filled
        by :func:`eval_pl` for the pieces it visits."""
        return {}

    @property
    def piece_count(self) -> int:
        return len(self.xs) - 1

    def slopes(self) -> list[Fraction]:
        return [
            (y1 - y0) / (x1 - x0)
            for x0, x1, y0, y1 in zip(self.xs, self.xs[1:], self.ys, self.ys[1:])
        ]

    def to_json_dict(self) -> dict:
        return {
            "x": [str(v) for v in self.xs],
            "y": [str(v) for v in self.ys],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PLMap":
        xs = [Fraction(s) for s in d["x"]]
        ys = [Fraction(s) for s in d["y"]]
        return pl_from_points(zip(xs, ys))


def _canonical_map(pts: Sequence[tuple[Fraction, Fraction]]) -> PLMap:
    """The map through x-sorted points, duplicates merged (they must agree) and
    collinear interior points dropped.  With x = a/b and y = c/d, (x1, y1) is on
    the segment from (x0, y0) to (x2, y2) iff the integer cross-differences give
    (c1 d0 - c0 d1)(a2 b1 - a1 b2) d2 b0 == (c2 d1 - c1 d2)(a1 b0 - a0 b1) d0 b2.
    """
    out: list[tuple[Fraction, Fraction]] = []
    nums: list[tuple[int, int, int, int]] = []  # (a, b, c, d) of each point of out
    for p in pts:
        x, y = p
        a2, b2, c2, d2 = x.numerator, x.denominator, y.numerator, y.denominator
        if nums and nums[-1][0] == a2 and nums[-1][1] == b2:
            if nums[-1][2] != c2 or nums[-1][3] != d2:
                raise ValueError(f"conflicting values at x={x}: {out[-1][1]} vs {y}")
            continue
        while len(nums) >= 2:
            (a0, b0, c0, d0), (a1, b1, c1, d1) = nums[-2], nums[-1]
            if (c1 * d0 - c0 * d1) * (a2 * b1 - a1 * b2) * d2 * b0 != (
                c2 * d1 - c1 * d2
            ) * (a1 * b0 - a0 * b1) * d0 * b2:
                break
            out.pop()
            nums.pop()
        out.append(p)
        nums.append((a2, b2, c2, d2))
    return PLMap(tuple(p[0] for p in out), tuple(p[1] for p in out))


def pl_from_points(points: Iterable[tuple[Fraction, Fraction]]) -> PLMap:
    """Build a canonical PLMap through the given (x, y) pairs."""
    return _canonical_map(sorted((_as_frac(x), _as_frac(y)) for x, y in points))


def identity_map() -> PLMap:
    return PLMap((ZERO_F, ONE_F), (ZERO_F, ONE_F))


def tent_map() -> PLMap:
    return pl_from_points([(0, 0), (Fraction(1, 2), 1), (1, 0)])


def eval_pl(f: PLMap, x: Fraction) -> Fraction:
    """Exact evaluation; breakpoints and flat pieces return their stored value.

    The piece is located by :func:`_bisect_right`.  Inside a piece the value
    is one ``Fraction`` from the piece's integer line in :attr:`PLMap.lines`.
    """
    x = _as_frac(x)
    n, d = x.numerator, x.denominator
    if n < 0 or n > d:
        raise ValueError(f"argument {x} outside [0,1]")
    i = _bisect_right(f, n, d) - 1
    xi = f.xs[i]
    # x == 1 lands on the last breakpoint, so i is a piece past this test
    if xi.numerator * d == n * xi.denominator:
        return f.ys[i]
    line = f.lines.get(i)
    if line is None:
        line = f.lines[i] = _line(f, i)
    alpha, beta, gamma = line
    if not alpha:
        return f.ys[i]
    return Fraction(alpha * n + beta * d, gamma * d)


def _line(f: PLMap, i: int) -> tuple[int, int, int]:
    """Integers (alpha, beta, gamma) with f(n/d) = (alpha n + beta d) / (gamma d)
    on piece i, from x0 = a/b, x1 = c/e, y0 = p/q and y1 = r/s: with
    rise = rq - ps and w = cb - ae, f(x) = y0 + (y1 - y0)(x - x0)/(x1 - x0)
    gives alpha = rise b e, beta = psw - rise a e and gamma = qsw, divided by
    their common gcd.  alpha is 0 exactly on a flat piece.
    """
    x0, x1, y0, y1 = f.xs[i], f.xs[i + 1], f.ys[i], f.ys[i + 1]
    a, b, c, e = x0.numerator, x0.denominator, x1.numerator, x1.denominator
    p, q, r, s = y0.numerator, y0.denominator, y1.numerator, y1.denominator
    rise, w = r * q - p * s, c * b - a * e
    alpha, beta, gamma = rise * b * e, p * s * w - rise * a * e, q * s * w
    g = gcd(alpha, beta, gamma)
    return alpha // g, beta // g, gamma // g


def _bisect_right(f: PLMap, n: int, d: int) -> int:
    """``bisect_right(f.xs, Fraction(n, d))`` for 0 <= n/d <= 1 and d > 0.

    Located on ``float_xs``: ``float`` rounds monotonically, so xs[j] <= n/d
    implies float(xs[j]) <= n/d, the float index is never left of the exact
    one, and integer comparisons walk it back.
    """
    xs = f.xs
    i = bisect_right(f.float_xs, n / d)
    while xs[i - 1].numerator * d > n * xs[i - 1].denominator:
        i -= 1
    return i


def compose(f: PLMap, g: PLMap) -> PLMap:
    """The composition f after g, computed exactly.

    Breakpoints are g's own plus the preimages under g of f's breakpoints,
    emitted piece by piece in x-order, so they need no sort; the result is
    canonical, and a preimage of f's breakpoint k takes the value f.ys[k].
    Each breakpoint of g is located in f as the slice [l, r) of f's
    breakpoints equal to its value, which serves both pieces it ends; its
    value under f is then a second search, by ``eval_pl``.
    """
    fx, fy = f.xs, f.ys
    pts: list[tuple[Fraction, Fraction]] = []
    x0 = y0 = l0 = r0 = None
    for x1, y1 in zip(g.xs, g.ys):
        n, d = y1.numerator, y1.denominator
        r1 = _bisect_right(f, n, d)
        b = fx[r1 - 1]
        l1 = r1 - 1 if b.numerator == n and b.denominator == d else r1
        # every breakpoint of f strictly inside the piece's value range pulls
        # back, in x-order, so in reverse on a falling piece
        if x0 is not None and (r0 < l1 or r1 < l0):
            inner = range(r0, l1) if r0 < l1 else reversed(range(r1, l0))
            run = (x1 - x0) / (y1 - y0)
            pts.extend((x0 + (fx[k] - y0) * run, fy[k]) for k in inner)
        pts.append((x1, eval_pl(f, y1)))
        x0, y0, l0, r0 = x1, y1, l1, r1
    return _canonical_map(pts)


def compose_chain(maps: Sequence[PLMap]) -> PLMap:
    """Compose maps[-1] o ... o maps[0] (maps applied left to right)."""
    if not maps:
        return identity_map()
    acc = maps[0]
    for m in maps[1:]:
        acc = compose(m, acc)
    return acc


def sup_distance(f: PLMap, g: PLMap) -> Fraction:
    """Exact uniform distance: the max of |f - g| over merged breakpoints."""
    xs = (x for x, _ in groupby(merge(f.xs, g.xs)))
    return max(abs(eval_pl(f, x) - eval_pl(g, x)) for x in xs)


def lap_count(f: PLMap) -> int:
    """Number of maximal monotone pieces.

    Constant runs merge into the monotone piece on their left; a map that
    starts with a constant run counts that run as part of its first lap, and
    the constant map has exactly one lap.
    """
    signs = [0 if s == 0 else (1 if s > 0 else -1) for s in f.slopes()]
    laps = 0
    current = 0
    for s in signs:
        if s == 0:
            continue
        if s != current:
            laps += 1
            current = s
    return max(laps, 1)


def is_surjective(f: PLMap) -> bool:
    return min(f.ys) == 0 and max(f.ys) == 1


def interval_image(f: PLMap, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Exact image [min, max] of a closed subinterval under f."""
    lo, hi = _as_frac(lo), _as_frac(hi)
    if lo > hi:
        raise ValueError("empty interval")
    # the extremes are among f(lo), f(hi) and f's values at breakpoints in (lo, hi]
    vals = [eval_pl(f, lo), eval_pl(f, hi)]
    vals += f.ys[_bisect_right(f, lo.numerator, lo.denominator)
                 : _bisect_right(f, hi.numerator, hi.denominator)]
    return min(vals), max(vals)


def graph_samples(f: PLMap, grid: int) -> list[tuple[Fraction, Fraction]]:
    """Values on the uniform grid {i/grid}, for CSV dumps."""
    return [(Fraction(i, grid), eval_pl(f, Fraction(i, grid))) for i in range(grid + 1)]

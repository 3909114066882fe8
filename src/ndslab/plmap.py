"""Exact continuous piecewise-linear self-maps of [0,1].

Breakpoints and values are rationals; evaluation, composition and the sup
metric are all computed without floating point.  Long products of maps are
intentionally not composed symbolically (the breakpoint count multiplies);
orbits should be iterated pointwise via the dynamics module instead.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

Rat = Fraction

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
        if any(a >= b for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("breakpoints must increase strictly")
        if any(y < 0 or y > 1 for y in self.ys):
            raise ValueError("values must lie in [0,1]")

    def __call__(self, x: Fraction) -> Fraction:
        return eval_pl(self, x)

    @cached_property
    def float_xs(self) -> array:
        """``float(xs)``, built on first use; it only locates pieces."""
        return array("d", map(float, self.xs))

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


def _canonical_points(
    pts: Sequence[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Sort, merge duplicates (must agree), drop collinear interior points."""
    pts = sorted(pts)
    merged: list[tuple[Fraction, Fraction]] = []
    for x, y in pts:
        if merged and merged[-1][0] == x:
            if merged[-1][1] != y:
                raise ValueError(f"conflicting values at x={x}: {merged[-1][1]} vs {y}")
            continue
        merged.append((x, y))
    out: list[tuple[Fraction, Fraction]] = []
    for p in merged:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            # drop (x1,y1) if collinear with neighbours
            if (y1 - y0) * (p[0] - x1) == (p[1] - y1) * (x1 - x0):
                out.pop()
            else:
                break
        out.append(p)
    return out


def pl_from_points(points: Iterable[tuple[Fraction, Fraction]]) -> PLMap:
    """Build a canonical PLMap through the given (x, y) pairs."""
    pts = _canonical_points([(_as_frac(x), _as_frac(y)) for x, y in points])
    return PLMap(tuple(p[0] for p in pts), tuple(p[1] for p in pts))


def identity_map() -> PLMap:
    return PLMap((ZERO_F, ONE_F), (ZERO_F, ONE_F))


def constant_map(v) -> PLMap:
    v = _as_frac(v)
    return PLMap((ZERO_F, ONE_F), (v, v))


def tent_map() -> PLMap:
    return pl_from_points([(0, 0), (Fraction(1, 2), 1), (1, 0)])


def eval_pl(f: PLMap, x: Fraction) -> Fraction:
    """Exact evaluation; breakpoints return their stored value.

    ``float`` rounds monotonically, so xs[j] <= x implies
    float(xs[j]) <= float(x): the float bisection never lands left of x's
    piece, and the exact integer comparisons below walk it back onto it.
    """
    x = _as_frac(x)
    n, d = x.numerator, x.denominator
    if n < 0 or n > d:
        raise ValueError(f"argument {x} outside [0,1]")
    xs = f.xs
    i = bisect_right(f.float_xs, n / d) - 1
    while xs[i].numerator * d > n * xs[i].denominator:
        i -= 1
    if i >= len(xs) - 1:
        return f.ys[-1]
    y0, y1 = f.ys[i], f.ys[i + 1]
    a, b = xs[i].numerator, xs[i].denominator
    c, e = xs[i + 1].numerator, xs[i + 1].denominator
    p, q = y0.numerator, y0.denominator
    r, s = y1.numerator, y1.denominator
    # y0 + (y1 - y0) * (x - x0) / (x1 - x0) over one common denominator
    rise = r * q - p * s
    run = n * b - a * d
    if rise == 0 or run == 0:
        return y0
    sdw = s * d * (c * b - a * e)
    return Fraction(p * sdw + rise * run * e, q * sdw)


def compose(f: PLMap, g: PLMap) -> PLMap:
    """The composition f after g, computed exactly.

    Breakpoints are g's own plus the preimages under g of f's breakpoints,
    found piece by piece; the result is canonical.
    """
    cuts: set[Fraction] = set(g.xs)
    for (x0, x1, y0, y1) in zip(g.xs, g.xs[1:], g.ys, g.ys[1:]):
        if y0 == y1:
            continue
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        i0 = bisect_right(f.xs, lo)
        # every breakpoint of f strictly inside the value range pulls back
        for b in f.xs[max(i0 - 1, 0) :]:
            if b > hi:
                break
            if lo < b < hi:
                cuts.add(x0 + (b - y0) * (x1 - x0) / (y1 - y0))
    xs = sorted(cuts)
    return pl_from_points((x, eval_pl(f, eval_pl(g, x))) for x in xs)


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
    xs = sorted(set(f.xs) | set(g.xs))
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
    vals = [eval_pl(f, lo), eval_pl(f, hi)]
    i = bisect_right(f.xs, lo)
    while i < len(f.xs) and f.xs[i] < hi:
        vals.append(f.ys[i])
        i += 1
    return min(vals), max(vals)


def graph_samples(f: PLMap, grid: int) -> list[tuple[Fraction, Fraction]]:
    """Values on the uniform grid {i/grid}, for CSV dumps."""
    return [(Fraction(i, grid), eval_pl(f, Fraction(i, grid))) for i in range(grid + 1)]

"""Exact reference implementations that the float-located fast paths replace.

These are the all-``Fraction`` versions of ``plmap.eval_pl``, the distality
minimum of ``analysis.distality_report`` and the frontier taint of
``dynamics.trajectory``.  They are kept here, not in ``src/``, as oracles
for the differential tests.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from ndslab.dynamics import Trajectory


def eval_pl(f, x) -> Fraction:
    x = Fraction(x)
    if x < 0 or x > 1:
        raise ValueError(f"argument {x} outside [0,1]")
    i = bisect_right(f.xs, x) - 1
    if i >= len(f.xs) - 1:
        return f.ys[-1]
    x0, x1 = f.xs[i], f.xs[i + 1]
    y0, y1 = f.ys[i], f.ys[i + 1]
    if x == x0:
        return y0
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def min_gap(ta, tb) -> Fraction:
    """ta, tb: (left orbit, right orbit) of two intervals, exact values."""
    min_d = None
    for t in range(len(ta[0])):
        gap = max(tb[0][t] - ta[1][t], ta[0][t] - tb[1][t], Fraction(0))
        min_d = gap if min_d is None else min(min_d, gap)
    return min_d


def trajectory(program, x, T: int) -> Trajectory:
    frontier = program.frontier
    values = [Fraction(x)]
    flags = [False]
    tainted = False
    for t in range(1, T + 1):
        if frontier and not tainted and any(l <= values[-1] <= r for l, r in frontier):
            tainted = True
        values.append(eval_pl(program.map_at(t), values[-1]))
        flags.append(tainted)
    return Trajectory(Fraction(x), tuple(values), tuple(flags))

"""Time-indexed evaluation of block programs.

Trajectories are always computed pointwise; composing the maps symbolically
would multiply breakpoint counts and is reserved for short verification
chains elsewhere.  Each step is exact; the first value that lies in a
frontier-flagged interval of the underlying atlas taints the rest of the
trajectory (the finite-depth limit map is only an approximation there).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .blowup import LimitMapBundle
from .constructions import BlockProgram
from .plmap import eval_pl


@dataclass(frozen=True)
class Trajectory:
    start: Fraction
    values: tuple[Fraction, ...]      # values[t] for t = 0..T
    tainted_from: Optional[int]       # first tainted time, None if exact throughout

    @property
    def tainted(self) -> bool:
        return self.tainted_from is not None

    def rows(self) -> list[tuple[int, int, int, bool]]:
        """CSV rows (t, numerator, denominator, flag)."""
        t0 = len(self.values) if self.tainted_from is None else self.tainted_from
        return [(t, v.numerator, v.denominator, t >= t0) for t, v in enumerate(self.values)]


def _first_in_frontier(values: list[Fraction], frontier) -> Optional[int]:
    """The first time whose value lies in a frontier interval, at least 1, or None."""
    # float() rounds monotonically, so l <= v <= r implies
    # float(l) <= float(v) <= float(r): a value outside every float interval
    # cannot lie in a frontier interval and skips the exact test.
    float_frontier = [(float(l), float(r)) for l, r in frontier]
    if not float_frontier:
        return None
    for t, v in enumerate(values):
        fv = v.numerator / v.denominator  # float(v), without the Rational dispatch
        for l, r in float_frontier:
            if l <= fv <= r and any(a <= v <= b for a, b in frontier):
                return max(t, 1)
    return None


def trajectory(
    program: BlockProgram, x: Fraction, T: int, steps: Optional[dict] = None
) -> Trajectory:
    """The exact value list x, f_1(x), f_2 f_1(x), ... up to time T.

    The taint begins at the first time t >= 1 whose value lies in a frontier
    interval, or at 1 when the start lies in one.  A ``steps`` dict, shared
    by orbits of one program, memoizes each step v -> f_t(v) by
    (id(f_t), v), so a step is evaluated only on a miss.
    """
    if T < 0:
        raise ValueError("horizon must be >= 0")
    values = [Fraction(x)]
    for t in range(1, T + 1):
        v = values[-1]
        f = program.map_at(t)
        if steps is None:
            v = eval_pl(f, v)
        else:
            key = (id(f), v.numerator, v.denominator)
            if key not in steps:
                steps[key] = eval_pl(f, v)
            v = steps[key]
        values.append(v)
    tainted_from = _first_in_frontier(values, program.frontier) if T else None
    return Trajectory(Fraction(x), tuple(values), tainted_from)


def code_rel_trajectory(
    bundle: LimitMapBundle, program: BlockProgram, code_rel: tuple, T: int
) -> Optional[list[tuple[str, Fraction]]]:
    """Trajectory in (code, relative position) coordinates, or None if tainted.

    The start is given as (Code, rel in [0,1]) on the bundle's atlas; the
    result lists, for each time, the blown interval's code string and the
    exact relative position inside it, and stops where the orbit leaves the
    blown intervals.  A frontier-tainted trajectory gives None; the others
    have coordinates independent of the atlas depth, which makes them the
    right object for model-consistency comparisons across depths.
    """
    traj = trajectory(program, bundle.point_at(*code_rel), T)
    if traj.tainted:
        return None
    out: list[tuple[str, Fraction]] = []
    for v in traj.values:
        loc = bundle.rel_of(v)
        if loc is None:
            return out
        out.append((str(loc[0]), loc[1]))
    return out

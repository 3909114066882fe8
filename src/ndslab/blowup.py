"""Finite-depth blow-up of the adding-machine orbit on the Cantor set.

Every eventually-constant code of depth <= D becomes a closed interval G(c)
in [0,1]; the intervals are laid out in theta-order with Cantor-proportional
gaps, and the limit map f_D carries G(c) onto G(alpha(c)) as an increasing
linear bijection.  The one code whose alpha-image would exceed depth D (the
all-ones block with tail 0) is a *frontier* code: its image is placed inside
the appropriate gap, and trajectories touching it are only approximate.

The layout formulas:

* |G(c)| = rho * base^(-depth(c)) / W  with  W = sum over codes of
  base^(-depth);
* the gap between theta-consecutive codes c < c' has length
  (1 - rho) * (theta(c') - theta(c));
* G(all-zeros) starts at 0 and G(all-ones) ends at 1, so the pieces tile
  [0,1] exactly and f_D is surjective.

Codes are laid out in the order of their expansions, so G(c) is
``intervals[symbolic.position(c, D)]`` and the code of the i-th interval is
``symbolic.code_at(i, D)``: the position is the (D+1)-prefix read as a
binary numeral, first letter most significant, and the orbit index
(``Code.index``, the one ``alpha`` shifts by 1) mod 2^(D+1) read backwards.
For a word w of length n <= D the level-n cylinder of w is the contiguous
run of intervals from G(w0-bar) to G(w1-bar), both of which are
represented; the hull J(n, e(w)) is the span of that run.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .plmap import PLMap, _canonical_map, interval_image, is_surjective
from .symbolic import Code, _check_word, _reverse, all_codes, code_at, int_to_word, position, theta

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Atlas:
    """The ordered interval family G(c) for all codes of depth <= depth."""

    depth: int
    rho: Fraction
    weight_base: int
    intervals: tuple[Interval, ...]              # G(c) in position (theta) order
    total_weight: Fraction                       # W

    @property
    def size(self) -> int:
        return len(self.intervals)

    @property
    def codes(self) -> tuple[Code, ...]:
        """The codes in position order, built anew on each access (the atlas keeps none)."""
        return tuple(all_codes(self.depth))

    def interval_of(self, c: Code) -> Interval:
        """G(c); a code deeper than the atlas raises KeyError."""
        return self.intervals[position(c, self.depth)]

    def find_g(self, x: Fraction) -> Optional[int]:
        """Index in theta-order of the G containing x, or None (gap point)."""
        i = bisect_right(self.intervals, x, key=itemgetter(0)) - 1
        if i >= 0 and self.intervals[i][0] <= x <= self.intervals[i][1]:
            return i
        return None

    def cylinder(self, word: str) -> range:
        """Positions of the codes whose expansion begins with ``word``.

        The run goes from w0-bar to w1-bar.  Beyond the atlas depth a
        cylinder holds at most one represented code and the run formula
        fails, so longer words raise ValueError.
        """
        if len(word) > self.depth:
            raise ValueError(f"word {word!r} is longer than atlas depth {self.depth}")
        _check_word(word)
        v, m = int(word or "0", 2), self.depth + 1 - len(word)
        return range(v << m, (v + 1) << m)

    def hull(self, n: int, k: int) -> Interval:
        """J(n, k): the span of the level-n cylinder of the word of value k."""
        run = self.cylinder(int_to_word(k, n))
        return self.intervals[run[0]][0], self.intervals[run[-1]][1]

    def hulls_at_level(self, n: int) -> list[Interval]:
        """The 2^n level-n hulls in spatial order."""
        return sorted(self.hull(n, k) for k in range(2 ** n))

    def min_hull_gap(self, n: int) -> Fraction:
        """Smallest gap between consecutive level-n cylinder hulls."""
        ivs = self.hulls_at_level(n)
        return min(b[0] - a[1] for a, b in zip(ivs, ivs[1:]))

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "rho": str(self.rho),
            "weight_base": self.weight_base,
            "entries": [
                {"code": str(c), "left": str(l), "right": str(r)}
                for c, (l, r) in zip(self.codes, self.intervals)
            ],
        }


def build_atlas(depth: int, rho: Fraction, weight_base: int) -> Atlas:
    """Lay out all codes of depth <= ``depth`` per the mass/gap formulas."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rho = Fraction(rho)
    if not (0 < rho < 1):
        raise ValueError("rho must lie strictly between 0 and 1")
    if weight_base < 2:
        raise ValueError("weight_base must be >= 2")

    # Over the common denominator q = b * s * 3^D, with rho = a/b and
    # W = s / base^D, G(c) has length a * 3^D * base^(D - depth(c)); the gap
    # after c is (b - a) * s times 3^D (theta(c') - theta(c)), which is
    # 3^(D - depth(c)) for a tail-1 code and 1 for a tail-0 code.
    codes = all_codes(depth)
    a, b = rho.numerator, rho.denominator
    weights = [weight_base ** (depth - c.depth) for c in codes]
    s = sum(weights)
    unit_len, unit_gap = a * 3 ** depth, (b - a) * s
    q = b * s * 3 ** depth

    intervals: list[Interval] = []
    pos = 0
    for c, wt in zip(codes, weights):
        end = pos + unit_len * wt
        intervals.append((Fraction(pos, q), Fraction(end, q)))
        pos = end + unit_gap * (3 ** (depth - c.depth) if c.tail else 1)
    if intervals[-1][1] != 1:
        raise AssertionError("layout does not tile [0,1] exactly")

    return Atlas(
        depth=depth,
        rho=rho,
        weight_base=weight_base,
        intervals=tuple(intervals),
        total_weight=Fraction(s, weight_base ** depth),
    )


@dataclass(frozen=True)
class LimitMapBundle:
    """The atlas together with its limit map and exactness bookkeeping."""

    atlas: Atlas
    f: PLMap
    exact_horizon: int
    frontier_code: Code
    frontier_image: Interval

    def frontier_intervals(self) -> list[Interval]:
        return [self.atlas.interval_of(self.frontier_code), self.frontier_image]

    def point_at(self, c: Code, rel: Fraction) -> Fraction:
        """The point of G(c) at relative position rel in [0,1]."""
        l, r = self.atlas.interval_of(c)
        return l + Fraction(rel) * (r - l)

    def rel_of(self, x: Fraction) -> Optional[tuple[Code, Fraction]]:
        """(code, relative position) if x lies in a G interval, else None."""
        i = self.atlas.find_g(x)
        if i is None:
            return None
        l, r = self.atlas.intervals[i]
        return code_at(i, self.atlas.depth), (x - l) / (r - l)


def exact_horizon(depth: int) -> int:
    """The last time up to which f_D at atlas depth ``depth`` is exact."""
    return 2 ** (depth - 1)


def build_limit_map(atlas: Atlas) -> LimitMapBundle:
    """Extend the interval-to-interval adding machine to a continuous f_D.

    Non-frontier G(c) map increasingly and linearly onto G(alpha(c)); each
    gap maps linearly between the image endpoints of its two neighbours; the
    frontier interval maps onto a segment placed inside the gap that holds
    its true (depth D+1) image, at the theta-proportional position.
    """
    d = atlas.depth
    frontier = Code((1 << d) - 1)  # 1^d 0-bar

    # Gap that will receive the frontier image: between G(all-zeros) and its
    # theta-successor.  The true image code is 0^d 1 0-bar at theta 2/3^(d+1).
    gap_lo = atlas.intervals[0][1]
    gap_hi = atlas.intervals[1][0]
    th_lo, th_hi = theta(code_at(0, d)), theta(code_at(1, d))
    th_true = Fraction(2, 3 ** (d + 1))
    center = gap_lo + (th_true - th_lo) / (th_hi - th_lo) * (gap_hi - gap_lo)
    true_len = atlas.rho * Fraction(1, atlas.weight_base ** (d + 1)) / atlas.total_weight
    half = min(true_len / 2, (center - gap_lo) / 2, (gap_hi - center) / 2)
    frontier_image: Interval = (center - half, center + half)

    # alpha adds 1 to the orbit index, which is the position read backwards;
    # the intervals are in x-order, so the points need no sort
    n, fpos = atlas.size, position(frontier, d)
    rev = [_reverse(i, d + 1) for i in range(n)]
    images = tuple(
        frontier_image if i == fpos else atlas.intervals[rev[(rev[i] + 1) % n]] for i in range(n)
    )
    f = _canonical_map(
        [pt for (l, r), (il, ir) in zip(atlas.intervals, images) for pt in ((l, il), (r, ir))]
    )
    if not is_surjective(f):
        raise AssertionError("limit map must be surjective")

    return LimitMapBundle(
        atlas=atlas,
        f=f,
        exact_horizon=exact_horizon(d),
        frontier_code=frontier,
        frontier_image=frontier_image,
    )


def verify_orbit_action(bundle: LimitMapBundle, steps: int) -> Optional[int]:
    """Iterate G(all-zeros) by interval images and match against the orbit.

    Returns the first step m at which the image is not G(alpha^m(all-zeros)),
    or None; raises if ``steps`` exceeds the exact horizon.
    """
    if steps > bundle.exact_horizon:
        raise ValueError(
            f"steps {steps} beyond exact horizon {bundle.exact_horizon}"
        )
    atlas = bundle.atlas
    cur = atlas.interval_of(Code(0))
    for m in range(1, steps + 1):
        cur = interval_image(bundle.f, *cur)
        if cur != atlas.interval_of(Code(m)):
            return m
    return None


def verify_hull_periodicity(bundle: LimitMapBundle, n: int) -> Optional[int]:
    """Check the level-n hull cycle J(n,0) -> J(n,1) -> ... -> J(n,0).

    Follows set images of J(n,0) for min(2^n, exact horizon) steps and
    returns the first step that leaves the cyclic pattern, or None.  When the
    full cycle fits inside the horizon (2^n <= exact horizon) a pass
    certifies the return time to be exactly 2^n: the hulls at one level are
    pairwise disjoint, so no earlier return is possible.
    """
    atlas = bundle.atlas
    if not 1 <= n <= atlas.depth:
        raise ValueError("level must satisfy 1 <= n <= depth")
    period = 2 ** n
    steps = min(period, bundle.exact_horizon)
    cur = atlas.hull(n, 0)
    for m in range(1, steps + 1):
        cur = interval_image(bundle.f, *cur)
        if cur != atlas.hull(n, m % period):
            return m
    return None


def hull_nesting_holds(atlas: Atlas, n: int, k: int, bit: int) -> bool:
    """J(n+1, k + bit*2^n) inside J(n, k): one nesting instance."""
    outer = atlas.hull(n, k)
    inner = atlas.hull(n + 1, k + bit * 2 ** n)
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def order_isomorphism_holds(atlas: Atlas) -> bool:
    """Interval order along the layout equals theta order of the codes."""
    ths = [theta(c) for c in atlas.codes]
    if any(a >= b for a, b in zip(ths, ths[1:])):
        return False
    return all(
        a[1] < b[0] for a, b in zip(atlas.intervals, atlas.intervals[1:])
    )


def one_code_per_deep_cylinder(atlas: Atlas) -> bool:
    """Each depth-(D+1) cylinder holds exactly one represented code.

    The represented codes biject with the words of length depth+1: the
    expansion prefix of that length determines the code and vice versa.
    """
    codes = atlas.codes
    prefixes = {c.prefix(atlas.depth + 1) for c in codes}
    return len(prefixes) == len(codes) == 2 ** (atlas.depth + 1)

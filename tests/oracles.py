"""Reference implementations that faster or shorter code in ``src/`` replaced.

These are the all-``Fraction`` versions of ``plmap.eval_pl``, the distality
minimum of ``analysis.distality_report`` and the frontier taint of
``dynamics.trajectory``, whose first tainted time this ``trajectory`` takes
from its own test of every value.  It also evaluates every step,
where ``dynamics.trajectory`` may look a step up in a memo shared over
orbits (``distality_report`` shares one over its endpoint orbits).  Then
come the per-symbol versions of the symbolic layer.  A ``Code`` is its
orbit index, the 2-adic integer its expansion spells; ``code_words`` reads
the canonical (block, tail) off that integer with a bit loop.  ``symbol``,
``prefix`` and the symbolic oracles after them read those words, not the
properties ``Code`` derives from the integer: ``theta`` as a sum of
``Fraction``s, ``alpha`` as the carry loop over the block, ``all_codes`` as
a level-by-level listing sorted by prefix, ``tau`` and ``compare`` symbol
by symbol, and ``split_depth`` (``analysis._split_depth``) as the first
differing letter of two prefixes.  The atlas's code lookup
(``symbolic.position`` and ``Atlas.interval_of``) is kept as
``locate_code``, a bisection over the thetas of the atlas codes.
``Atlas.cylinder`` and ``Atlas.hull`` are kept as a scan of every code for
its prefix, as the run from w0-bar to w1-bar with its places found in the
sorted listing of ``all_codes``, and as a table of hulls grouped by prefix
at every level, and the limit map's values at interval ends as its table of
interval images.  The set-up that now works on integers and positions is kept in
its ``Fraction`` and ``Code`` form: ``build_atlas``'s layout as the sum of
``Fraction`` lengths and gaps, ``build_limit_map``'s points as one
``alpha`` image per code, then sorted, and ``build_lambda``'s partner of
G(c) as G(tau(w, c)).  The separated-set greedy
pass is kept twice: as the count over pre-sampled rows that
``analysis.entropy_estimate`` made, and as the loop of
``analysis.greedy_separated`` that sampled each candidate and tested it
before sampling the next.  They are kept here, not in ``src/``, as oracles
for the differential tests.

The map-construction kernels of ``plmap`` are kept in their all-``Fraction``
form too: ``canonical_points`` sorts, merges and tests collinearity on
``Fraction`` differences, ``plmap_check`` is ``PLMap``'s validation with
``Fraction`` comparisons, ``compose`` collects its cuts in a set and sorts
them, ``sup_distance`` evaluates over the sorted union of breakpoints, and
``interval_image`` bisects the ``Fraction`` breakpoints and walks them with
``Fraction`` comparisons.  ``constant_map`` is a test input only: no code in
``src/`` builds a constant map.

``main_model_orbit`` is a depth-free model of the main family, not a
replaced version: it follows a (code, relative position) pair through the
stage steps with this module's ``alpha`` and ``tau`` and its own stack
ends, with no atlas and no ``PLMap``.

``ly_classify`` is kept as the version that computed both trajectories on
every call and took the tail minimum and maximum of ``Fraction`` distances;
``analysis.ly_classify`` now reads each start's tail window from a memo on
the program, as integer numerators over one common denominator, and takes
the minimum and maximum of integer distances over one denominator per pair.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from ndslab import dynamics
from ndslab.analysis import PairVerdict
from ndslab.dynamics import Trajectory
from ndslab.plmap import PLMap
from ndslab.symbolic import ONE, ZERO, Block, canonicalize, int_to_word, word_to_int


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


def canonical_points(pts) -> list[tuple[Fraction, Fraction]]:
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
            if (y1 - y0) * (p[0] - x1) == (p[1] - y1) * (x1 - x0):
                out.pop()
            else:
                break
        out.append(p)
    return out


def plmap_check(xs, ys) -> None:
    """Raise the ValueError ``PLMap`` raises for invalid breakpoints and values."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need matching xs/ys with at least two points")
    if xs[0] != 0 or xs[-1] != 1:
        raise ValueError("domain must be exactly [0,1]")
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("breakpoints must increase strictly")
    if any(y < 0 or y > 1 for y in ys):
        raise ValueError("values must lie in [0,1]")


def pl_points(points) -> list[tuple[Fraction, Fraction]]:
    """The (x, y) pairs of the canonical map through ``points``, checked."""
    pts = canonical_points([(Fraction(x), Fraction(y)) for x, y in points])
    plmap_check([x for x, _ in pts], [y for _, y in pts])
    return pts


def compose(f, g) -> list[tuple[Fraction, Fraction]]:
    """The (x, y) pairs of f after g, from the set of cuts, sorted."""
    cuts: set[Fraction] = set(g.xs)
    for (x0, x1, y0, y1) in zip(g.xs, g.xs[1:], g.ys, g.ys[1:]):
        if y0 == y1:
            continue
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        i0 = bisect_right(f.xs, lo)
        for b in f.xs[max(i0 - 1, 0) :]:
            if b > hi:
                break
            if lo < b < hi:
                cuts.add(x0 + (b - y0) * (x1 - x0) / (y1 - y0))
    return pl_points((x, eval_pl(f, eval_pl(g, x))) for x in sorted(cuts))


def sup_distance(f, g) -> Fraction:
    xs = sorted(set(f.xs) | set(g.xs))
    return max(abs(eval_pl(f, x) - eval_pl(g, x)) for x in xs)


def interval_image(f, lo, hi) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    vals = [eval_pl(f, lo), eval_pl(f, hi)]
    i = bisect_right(f.xs, lo)
    while i < len(f.xs) and f.xs[i] < hi:
        vals.append(f.ys[i])
        i += 1
    return min(vals), max(vals)


def constant_map(v) -> PLMap:
    v = Fraction(v)
    return PLMap((Fraction(0), Fraction(1)), (v, v))


def min_gap(ta, tb) -> Fraction:
    """ta, tb: (left orbit, right orbit) of two intervals, exact values."""
    min_d = None
    for t in range(len(ta[0])):
        gap = max(tb[0][t] - ta[1][t], ta[0][t] - tb[1][t], Fraction(0))
        min_d = gap if min_d is None else min(min_d, gap)
    return min_d


def trajectory(program, x, T: int) -> Trajectory:
    values = [Fraction(x)]
    for t in range(1, T + 1):
        values.append(eval_pl(program.map_at(t), values[-1]))
    # the first value in a frontier interval taints its time, the start time 1
    hits = [t for t, v in enumerate(values) if any(l <= v <= r for l, r in program.frontier)]
    tainted_from = max(hits[0], 1) if hits and T else None
    return Trajectory(Fraction(x), tuple(values), tainted_from)


def code_words(j: int) -> tuple[str, int]:
    """The canonical (block, tail) of the code at orbit index j, by a bit loop."""
    if j >= 0:
        bits = ""
        m = j
        while m:
            bits += str(m & 1)
            m >>= 1
        return bits, 0
    m = -j
    # smallest depth d with 2^d >= m; block encodes 2^d - m
    d = max(1, m.bit_length() if m & (m - 1) else (m.bit_length() - 1))
    while 2 ** d < m:
        d += 1
    e = 2 ** d - m
    bits = "".join(str((e >> i) & 1) for i in range(d))
    return bits.rstrip("1"), 1


def symbol(c, i: int) -> int:
    """The i-th letter of the expansion of c, positions starting at 1."""
    block, tail = code_words(c.index)
    return int(block[i - 1]) if i <= len(block) else tail


def prefix(c, n: int) -> str:
    block, tail = code_words(c.index)
    return (block + str(tail) * n)[:n]


def theta(c) -> Fraction:
    block, tail = code_words(c.index)
    head = sum(Fraction(2 * int(ch), 3 ** (i + 1)) for i, ch in enumerate(block))
    return head + Fraction(tail, 3 ** len(block))


def alpha(c, direction: int = 1):
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    block, tail = code_words(c.index)
    # Adding looks for the first 0, subtracting for the first 1; positions
    # before the pivot all flip to the carry digit.
    pivot = "0" if direction == 1 else "1"
    fill = "0" if direction == 1 else "1"
    for i, ch in enumerate(block):
        if ch == pivot:
            new_block = fill * i + ("1" if direction == 1 else "0") + block[i + 1 :]
            return canonicalize(new_block, tail)
    if str(tail) == pivot:
        # carry stops at the first tail position
        new_block = fill * len(block) + ("1" if direction == 1 else "0")
        return canonicalize(new_block, tail)
    # No pivot anywhere: the constant sequence rolls over to the other one.
    return canonicalize("", 1 - tail)


def all_codes(max_depth: int) -> list:
    codes = [ZERO, ONE]
    for d in range(1, max_depth + 1):
        for head in range(2 ** (d - 1)):
            bits = int_to_word(head, d - 1)
            for tail in (0, 1):
                codes.append(canonicalize(bits + str(1 - tail), tail))
    width = max_depth + 1
    codes.sort(key=lambda c: prefix(c, width))
    return codes


def tau(n, c):
    k = len(n)
    block, tail = code_words(c.index)
    if not all(symbol(c, i + 1) == int(ch) for i, ch in enumerate(n.word)):
        return c
    kept = "".join(str(symbol(c, i)) for i in range(1, k + 1))
    rest = "".join(str(1 - symbol(c, i)) for i in range(k + 1, len(block) + 1))
    return canonicalize(kept + rest, 1 - tail)


def compare(a, b) -> int:
    n = max(len(code_words(a.index)[0]), len(code_words(b.index)[0])) + 1
    ea = tuple(symbol(a, i) for i in range(1, n + 1))
    eb = tuple(symbol(b, i) for i in range(1, n + 1))
    if ea == eb:
        return 0
    return -1 if ea < eb else 1


def split_depth(a, b) -> int:
    n = max(len(code_words(a.index)[0]), len(code_words(b.index)[0])) + 1
    for i, (p, q) in enumerate(zip(prefix(a, n), prefix(b, n)), start=1):
        if p != q:
            return i
    raise ValueError("codes must be distinct")


def locate_code(atlas, c):
    if c.depth > atlas.depth:
        return None
    codes = atlas.codes
    thetas = [theta(x) for x in codes]
    i = bisect_right(thetas, theta(c)) - 1
    if i >= 0 and codes[i] == c:
        return atlas.intervals[i]
    return None


def cylinder_codes(atlas, word: str) -> list:
    """Theta-ordered atlas codes lying in the cylinder of ``word``."""
    return [c for c in atlas.codes if c.starts_with(word)]


def hull_table(atlas) -> dict:
    """(n, e(word)) -> J(n, e(word)) for every level n <= depth, by prefix grouping."""
    hulls = {}
    for n in range(1, atlas.depth + 1):
        groups: dict[str, list] = {}
        for c, iv in zip(atlas.codes, atlas.intervals):
            groups.setdefault(c.prefix(n), []).append(iv)
        for word, ivs in groups.items():
            hulls[(n, word_to_int(word))] = (min(a for a, _ in ivs), max(b for _, b in ivs))
    return hulls


def limit_images(bundle) -> dict:
    """code -> the interval the limit map carries G(code) onto."""
    atlas = bundle.atlas
    return {
        c: bundle.frontier_image if c == bundle.frontier_code else atlas.interval_of(alpha(c))
        for c in atlas.codes
    }


def layout(depth: int, rho, weight_base: int) -> tuple[list, Fraction]:
    """(intervals, W) of ``build_atlas``, summing ``Fraction`` lengths and gaps."""
    rho = Fraction(rho)
    codes = all_codes(depth)
    w = sum(Fraction(1, weight_base ** c.depth) for c in codes)
    lengths = [rho * Fraction(1, weight_base ** c.depth) / w for c in codes]
    thetas = [theta(c) for c in codes]
    intervals = []
    pos = Fraction(0)
    for i, ln in enumerate(lengths):
        intervals.append((pos, pos + ln))
        pos += ln
        if i + 1 < len(codes):
            pos += (1 - rho) * (thetas[i + 1] - thetas[i])
    return intervals, w


def limit_points(bundle) -> list[tuple[Fraction, Fraction]]:
    """The limit map's (x, y) points, one ``alpha`` image per code, then sorted."""
    images = limit_images(bundle)
    points = []
    for c, (l, r) in zip(bundle.atlas.codes, bundle.atlas.intervals):
        points += [(l, images[c][0]), (r, images[c][1])]
    return sorted(points)


def tau_partner(atlas, word: str, c):
    """G(tau(w, c)): the interval lambda carries G(c) onto."""
    return atlas.interval_of(tau(Block(word), c))


def cylinder_run(atlas, word: str) -> range:
    """Positions from G(w0-bar) to G(w1-bar), read off the sorted listing."""
    codes = all_codes(atlas.depth)
    return range(codes.index(canonicalize(word, 0)), codes.index(canonicalize(word, 1)) + 1)


def stack_ends(n: int) -> tuple[Fraction, Fraction]:
    """The relative ends (1 -+ s_n)/2 of the level-n stack, s_n = 1 - 2^(-n-1)."""
    s = 1 - Fraction(1, 2 ** (n + 1))
    return (1 - s) / 2, (1 + s) / 2


def _through(points, r: Fraction) -> Fraction:
    """The PL map through x-sorted points, at r; the identity outside their span."""
    if not points[0][0] <= r <= points[-1][0]:
        return r
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if r <= x1:
            return y0 + (y1 - y0) * (r - x0) / (x1 - x0)


def main_model_steps(stages) -> list[tuple]:
    """The main program on stages ((word, a), ...) as (word or None, move or None, visit) steps.

    Stage n repeats a times one fold step and 2^|word| - 1 plain steps, each
    reversing the word's cylinder first, then collapses once.  A move is the
    relative map of the visit interval: the level-n fold through (kl, kl),
    (il, kr), (ir, kl), (kr, kr) with K^(n-1) = [il, ir] as divider, or the
    collapse of K^n to 1/2 through (ol, ol), (kl, 1/2), (kr, 1/2), (or, or)
    with K^(n+1) = [ol, or].
    """
    steps = []
    for n, (word, a) in enumerate(stages, start=1):
        p = sum(int(ch) << i for i, ch in enumerate(word))
        (kl, kr), (il, ir), (ol, orr) = (stack_ends(m) for m in (n, n - 1, n + 1))
        fold = [(kl, kl), (il, kr), (ir, kl), (kr, kr)]
        half = Fraction(1, 2)
        collapse = [(ol, ol), (kl, half), (kr, half), (orr, orr)]
        unit = [(word, fold, p)] + [(word, None, p)] * (2 ** len(word) - 1)
        steps += unit * a + [(None, collapse, p)]
    return steps


def main_model_orbit(stages, c, r: Fraction, T: int) -> list[tuple]:
    """(code, relative position) at times 0..T of the main program, without an atlas.

    One step reverses the code's letters after the stage word if the map has
    a lambda, applies the move if the code is the visit code, then adds one
    with ``alpha``; after the stages it only adds one.  The model has no
    depth: ``alpha`` takes the frontier code 1^D 0-bar to 0^D 1 0-bar, which
    an atlas of depth D does not hold.
    """
    steps = main_model_steps(stages)
    out = [(c, Fraction(r))]
    for t in range(T):
        word, move, p = steps[t] if t < len(steps) else (None, None, None)
        if word is not None:
            c = tau(Block(word), c)
        if move is not None and c.index == p:
            r = _through(move, r)
        c = alpha(c)
        out.append((c, r))
    return out


def separated(row, chosen, epsilon) -> bool:
    return all(any(abs(a - b) > epsilon for a, b in zip(row, c)) for c in chosen)


def greedy_count(rows, n: int, epsilon) -> int:
    chosen = []
    for row in rows:
        vx = row[:n]
        if separated(vx, chosen, epsilon):
            chosen.append(vx)
    return len(chosen)


def greedy_witnesses(program, candidates, A, n: int, epsilon) -> tuple[Fraction, ...]:
    """Witnesses of ``greedy_separated``, each candidate sampled as it is tested."""
    times = list(A[:n])
    rows = []
    selected = []
    for x in candidates:
        traj = dynamics.trajectory(program, Fraction(x), max(times))
        vx = [traj.values[t] for t in times]
        if separated(vx, rows, epsilon):
            rows.append(vx)
            selected.append(Fraction(x))
    return tuple(selected)


def ly_classify(program, x, y, T: int, delta) -> PairVerdict:
    """Tail window [T/2, T] of both trajectories, computed afresh each call."""
    if T < 1:
        raise ValueError("horizon must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    tx = dynamics.trajectory(program, Fraction(x), T)
    ty = dynamics.trajectory(program, Fraction(y), T)
    lo = T // 2
    dists = [abs(a - b) for a, b in zip(tx.values[lo:], ty.values[lo:])]
    tail_min, tail_max = min(dists), max(dists)
    if tail_min >= delta:
        cls = "distal-candidate"
    elif tail_max > delta:
        cls = "LY-candidate"
    else:
        cls = "asymptotic-candidate"
    return PairVerdict(tail_min=tail_min, tail_max=tail_max, horizon=T, classification=cls)

"""The main family on the atlas against its depth-free symbolic model.

In (code, relative position) coordinates every map of a main program sends
a blown interval onto a blown interval: lambda carries G(c) increasingly
onto G(tau_w(c)) in its hull and is the identity on the other intervals,
f_D carries G(c) linearly onto G(alpha(c)), and the fold and the collapse
move only the relative position inside the visit interval.
``oracles.main_model_orbit`` takes those steps on codes with the oracles'
bit-loop ``alpha`` and ``tau`` and its own stack ends, so it needs no atlas,
no depth and no ``PLMap``.  Here every orbit of the atlas program, up to the
exact horizon, must be the model's orbit until the model's code leaves the
atlas depth D, which it does only by adding one to the frontier code
1^D 0-bar, and the taint must begin at the first value the frontier test
catches.

The model also shows the mechanism behind criterion 7e's floor: alpha and
tau never change the split depth of two codes (the first letter where they
differ), so no step of a main program brings two blown intervals closer in
code.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ndslab import dynamics
from ndslab.blowup import build_atlas, build_limit_map
from ndslab.constructions import StageParams, StageSpec, build_main_nds, default_stages
from ndslab.symbolic import Block, Code, int_to_word
from test_atlas_oracles import bases, rhos


@st.composite
def main_cases(draw):
    """A depth, stage blocks of increasing length, repeat counts and starts.

    A block may be as long as the depth, so the visits reach 2^D - 2; only
    1^D, whose visit is the frontier code, is left out.  A start is a code
    of any depth at a random relative position, or a stack end of level
    1-4 at a stage's visit code.
    """
    depth = draw(st.integers(3, 10))
    lengths = sorted(draw(st.sets(st.integers(1, depth), min_size=1, max_size=3)))
    stages = []
    for k in lengths:
        word = int_to_word(draw(st.integers(0, 2 ** k - 1)), k)
        if word == "1" * depth:
            word = "0" + word[1:]
        stages.append((word, draw(st.integers(1, 3))))
    visits = [Code(sum(int(ch) << i for i, ch in enumerate(w))) for w, _ in stages]
    codes = st.integers(-(2 ** depth), 2 ** depth - 1).map(Code)
    rels = st.fractions(0, 1, max_denominator=2 ** 20)
    stack_ends = st.tuples(
        st.sampled_from(visits),
        st.integers(1, 4).flatmap(lambda n: st.sampled_from(oracles.stack_ends(n))),
    )
    starts = draw(st.lists(st.one_of(st.tuples(codes, rels), stack_ends), min_size=1, max_size=4))
    return depth, tuple(stages), starts


@settings(max_examples=25, deadline=None)
@given(main_cases(), rhos, bases)
@example(
    (6, (("1", 3), ("11", 5), ("111", 7)), [(Code(1), Fraction(1, 4)), (Code(63), Fraction(1, 2))]),
    Fraction(1, 2),
    4,
)
@example((8, (("0110", 2), ("11111110", 1)), [(Code(6), Fraction(3, 8))]), Fraction(2, 7), 3)
# the midpoint of G(100000|1) on the default depth-6 program: lambda carries
# it onto the frontier code within step 1, so its value at t = 1 already
# lies in the frontier image
@example((6, (("1", 3), ("11", 5), ("111", 7)), [(Code(-63), Fraction(1, 2))]), Fraction(1, 2), 4)
def test_atlas_orbits_follow_the_model(case, rho, base):
    depth, stages, starts = case
    bundle = build_limit_map(build_atlas(depth, rho, base))
    params = StageParams(tuple(StageSpec(Block(w), a) for w, a in stages))
    program = build_main_nds(bundle, params)
    T, frontier = bundle.exact_horizon, bundle.frontier_code
    for c, r in starts:
        traj = dynamics.trajectory(program, bundle.point_at(c, r), T)
        model = oracles.main_model_orbit(stages, c, r, T)
        # the atlas is exact until the model's code leaves depth D; then the
        # orbit stands in the frontier image that f_D gives G(1^D 0-bar)
        s = next((t for t, (code, _) in enumerate(model) if code.depth > depth), T + 1)
        assert [bundle.rel_of(v) for v in traj.values[:s]] == model[:s], (c, r)
        if s <= T:
            assert bundle.frontier_image[0] <= traj.values[s] <= bundle.frontier_image[1]
        # the taint begins at the first value in G(1^D 0-bar) or in the
        # frontier image, at time 1 when the start lies in G(1^D 0-bar)
        first = min([t for t, (code, _) in enumerate(model[:s]) if code == frontier] + [s])
        taint = min(max(first, 1), s)
        assert traj.tainted_from == (taint if taint <= T else None), (c, r)


@pytest.mark.parametrize("word", [None] + [s.block.word for s in default_stages()])
def test_no_step_changes_the_split_depth(word):
    # alpha keeps x - y and tau the lowest set bit of x XOR y: every pair of
    # codes of depth <= 6 keeps its split depth under f_D's alpha and under
    # each default stage's alpha after tau
    codes = oracles.all_codes(6)

    def step(c):
        return oracles.alpha(c if word is None else oracles.tau(Block(word), c))

    for a, b in combinations(codes, 2):
        assert oracles.split_depth(step(a), step(b)) == oracles.split_depth(a, b)

"""Exact-arithmetic lab for nonautonomous interval dynamics.

Builds adding-machine blow-ups of the Cantor set at finite symbolic depth,
the block-structured map sequences perturbing their limit map, and the
diagnostics (separated-set entropy bounds, Li-Yorke pair classification,
distality and uniform-convergence reports) used to verify their properties.
"""

from .symbolic import (
    ZERO,
    ONE,
    Block,
    Code,
    alpha,
    all_blocks,
    all_codes,
    canonicalize,
    eta,
    eta_orbit,
    evaluate_e,
    tau,
    theta,
)
from .plmap import (
    PLMap,
    compose,
    compose_chain,
    eval_pl,
    identity_map,
    interval_image,
    is_surjective,
    lap_count,
    pl_from_points,
    sup_distance,
    tent_map,
)
from .blowup import (
    Atlas,
    LimitMapBundle,
    build_atlas,
    build_limit_map,
    verify_hull_periodicity,
    verify_orbit_action,
)
from .constructions import (
    BlockProgram,
    Stage,
    StageParams,
    StageSpec,
    build_g1inf,
    build_k_interval,
    build_lambda,
    build_main_nds,
    build_phi_stage,
    build_psi_stage,
    lemma_K,
    lemma_nds,
    lemma_phi,
    lemma_psi,
    stack_rel,
    times_R,
    times_S,
)
from .dynamics import Trajectory, trajectory
from .analysis import (
    EntropyTable,
    PairVerdict,
    SeparationReport,
    convergence_report,
    distality_report,
    entropy_estimate,
    eventual_constancy,
    greedy_separated,
    ly_classify,
    verify_separated,
)

__version__ = "0.1.0"

"""Exact-arithmetic lab for nonautonomous interval dynamics.

Builds adding-machine blow-ups of the Cantor set at finite symbolic depth,
the block-structured map sequences perturbing their limit map, and the
diagnostics (separated-set entropy bounds, Li-Yorke pair classification,
distality and uniform-convergence reports) used to verify their properties.
Callers import the layer modules, e.g. ``from ndslab.analysis import ...``.
"""

# Loaded for perfbench's tracer, which wraps every layer after ``import ndslab``.
from . import symbolic, plmap, blowup, constructions, dynamics, analysis  # noqa: F401

__version__ = "0.1.0"

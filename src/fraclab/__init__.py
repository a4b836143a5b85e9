"""Numerical laboratory for fractional Dirichlet boundary behavior.

Subpackages: quadrature (adaptive rules with estimated errors), moduli
(moduli of continuity, Dini integrals, oscillation profiles), stable_operator
(2s-stable operators and tails), ball_poisson (Poisson-kernel solver on the
unit ball), exterior_data (datum constructors), geometry (domain regularity
oracles), experiments (sweeps and CSV emission), cli (command line).
"""

NUMBA_ACTIVE = False  # nothing is compiled; kept for callers that report it

__all__ = ["NUMBA_ACTIVE"]
__version__ = "1.0.0"

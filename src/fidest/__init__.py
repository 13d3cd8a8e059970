"""Exact simulation and estimation of fidelity under purified state access.

Names are imported from their modules: ``from fidest.fidelity import fidelity_to_pure``.
"""

# loads what fidest.cli runs, so a tracer can wrap it before the CLI binds it;
# fidest.cli itself and fidest.reference load only on request
from . import circuits, estimation, fidelity, linalg, oracles

__version__ = "0.1.0"

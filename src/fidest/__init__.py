"""Exact simulation and estimation of fidelity under purified state access.

Names are imported from their modules: ``from fidest.fidelity import ESTIMATORS``, then
``ESTIMATORS["optimal"].bind(u, v)(epsilon, seed)`` runs an estimator on an oracle pair.
"""

# loads what a sweep or a single estimate runs, none of which imports numpy, so a
# tracer can wrap it before the CLI binds it; fidest.cli and fidest.reference load
# only on request, and fidest.linalg (numpy) when verify-identities or
# hard-instance first runs, after a tracer's hooks are in place
from . import circuits, estimation, fidelity, oracles

__version__ = "0.1.0"

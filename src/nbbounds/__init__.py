"""Concentration bounds and monitoring for sums of Negative Binomial counts.

The package evaluates and inverts tail bounds on maximal partial-sum
deviations of overdispersed count variables, both independent and coupled
through a shared Gamma mixing rate; runs the seeded Monte Carlo
experiments that validate them; and drives a cumulative control-limit
monitoring protocol for multi-region count surveillance.
"""

from . import bounds, distributions, simulation, surveillance
from ._version import __version__
from .bounds import *  # noqa: F403
from .distributions import *  # noqa: F403
from .errors import DomainError
from .rng import RngHandle
from .simulation import *  # noqa: F403
from .surveillance import *  # noqa: F403

__all__ = [
    "__version__",
    "DomainError",
    "RngHandle",
    *distributions.__all__,
    *bounds.__all__,
    *simulation.__all__,
    *surveillance.__all__,
]

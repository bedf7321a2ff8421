"""Kelly betting on all-or-nothing contracts: optimal fractions, market
clearing for populations of log-utility bettors, binomial tail bounds on
finite-horizon growth, and a seeded Monte Carlo validator."""

from . import clearing, growth, kelly, montecarlo
from .clearing import *  # noqa: F401,F403
from .growth import *  # noqa: F401,F403
from .kelly import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(clearing.__all__ + growth.__all__ + kelly.__all__
                 + montecarlo.__all__)

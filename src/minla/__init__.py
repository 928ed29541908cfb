"""Online minimum linear arrangement over clique and line collections.

Library and CLI for maintaining an optimal node arrangement while a graph is
revealed merge by merge: a deterministic closest-arrangement strategy, a
randomized strategy with exact rational coins, exact offline optima, hard
instance generators, and a seeded Monte Carlo harness.
"""

__version__ = "0.1.0"

from .errors import *
from .perm import *
from .trace import *
from .algorithms import *
from .oracle import *
from .adversaries import *
from .harness import *

__all__ = [
    "__version__",
    *errors.__all__,
    *perm.__all__,
    *trace.__all__,
    *algorithms.__all__,
    *oracle.__all__,
    *adversaries.__all__,
    *harness.__all__,
]

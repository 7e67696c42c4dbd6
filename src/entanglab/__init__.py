"""entanglab: a Monte-Carlo laboratory for random induced quantum states.

Samples random states with tunable environment dimension, decides
separability where that is exactly possible (and PPT everywhere), measures
gauges, support functions and mean widths of the state-space convex bodies,
and reproduces spectral convergence and threshold phenomena at desk scale.

The package re-exports each library module's `__all__`, the one list of that
module's public names; `io` and `cli` are reached as modules.
"""

from .linalg import *
from .rng import *
from .geometry import *
from .ensembles import *
from .spectral import *
from .separability import *
from .widths import *
from .stats import *
from .config import *
from .experiments import *

__version__ = "0.1.0"

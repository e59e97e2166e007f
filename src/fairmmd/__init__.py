"""Kernel two-sample statistics for group fairness.

The package measures how far a learned representation is from equalized
odds by comparing label-reweighted group mixtures with a maximum mean
discrepancy, and backs the number up three ways: closed forms on Gaussian
populations, finite-sample deviation certificates, and bound clauses that
relate the statistic to classifier-level fairness gaps.  A small gradient
trainer turns the squared statistic into a penalty.
"""

from . import bounds, complexity, eok, errors, fairness, frl, kernels, mmd, synth
from .errors import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403
from .mmd import *  # noqa: F401,F403
from .fairness import *  # noqa: F401,F403
from .eok import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .complexity import *  # noqa: F401,F403
from .frl import *  # noqa: F401,F403

__version__ = "0.1.0"

# The public names of the package are those of its modules, listed once in
# each module's __all__.
__all__ = ["__version__"] + [
    name for module in (errors, kernels, synth, mmd, fairness, eok, bounds, complexity, frl)
    for name in module.__all__
]

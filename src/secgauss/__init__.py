"""Secrecy payoff analysis for lossy compression of a Gaussian source.

A library and CLI for computing, optimizing, and empirically validating
the trade-off between message rate, secret-key rate, and the payoff (the
eavesdropper's excess squared error over the legitimate decoder's).
The package exports the public names of its modules, listed in each
module's `__all__`.
"""

from . import errors, lp, model, quantizer, schemes, sim
from .errors import *  # noqa: F403
from .lp import *  # noqa: F403
from .model import *  # noqa: F403
from .quantizer import *  # noqa: F403
from .schemes import *  # noqa: F403
from .sim import *  # noqa: F403

__version__ = "0.1.0"
__all__ = ["__version__"] + [
    name for module in (errors, model, quantizer, schemes, lp, sim) for name in module.__all__
]

"""qidsim: simulator for the universal quantum information distributor.

Discrete N-level registers (bases, shift operators, the four-gate
distributor circuit, cloning fidelities) plus the continuous-variable
Gaussian limit (regularised program states, reduction kernels, Wigner-grid
numerics, the coherent-state cloner).

The package re-exports only the names of README's library example; every
other name is imported from its module, ``qidsim.qudit_core``,
``qidsim.qid_network``, ``qidsim.cv_gaussian`` or ``qidsim.cli``.
"""

from .qudit_core import fidelity, haar_random_state
from .qid_network import clone_fidelity, cloner_program, distribute

__version__ = "0.1.0"

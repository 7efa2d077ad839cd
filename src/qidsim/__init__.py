"""qidsim: simulator for the universal quantum information distributor.

Discrete N-level registers (bases, shift operators, the four-gate
distributor circuit, cloning fidelities) plus the continuous-variable
Gaussian limit (regularised program states, reduction kernels, Wigner-grid
numerics, the coherent-state cloner).
"""

from .qudit_core import (
    DensityOperator,
    Operator,
    PureState,
    entangled_state,
    fidelity,
    haar_random_state,
    partial_trace,
    shift_p,
    shift_x,
)
from .qid_network import (
    DistributorOutput,
    classical_distributor_fidelity,
    clone_fidelity,
    cloner_program,
    covariance_check,
    covariance_deviation,
    distribute,
    predicted_outputs,
    program_state,
    scaling_factor,
    solve_beta,
    two_branch_beta,
)
from .cv_gaussian import (
    GaussianState,
    WignerGrid,
    coherent_cloner,
    cv_fidelity,
    gaussian_fidelity,
    kernel_eval,
    output_wigner,
    qid_symplectic,
    regularized_epr,
    solve_cv_beta,
)

__version__ = "0.1.0"

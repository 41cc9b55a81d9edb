"""Block-structured relaxation of nonconvex sparse recovery.

Planted instances couple a block sensing matrix with an ensemble of candidate
columns; selecting one column per block is relaxed to weighted l1 minimization
whose optimum, when a dual certificate holds, is provably the planted choice.
The package bundles the generator, the exact active-set solver with its certificate,
exhaustive oracles, Monte Carlo concentration checks with their closed forms,
the success probabilities of relaxing against repeated guessing, and the
hardness reductions that motivate relaxing in the first place.
"""

from .bounds import (
    MatrixConstants,
    complement_power,
    ensemble_norm_weights,
    limit_ratio,
    matrix_constants,
    spectral_norm,
    success_prob_block_relaxation,
    success_prob_repeated_trials,
)
from .generate import (
    GenConfig,
    build_instance,
    derive_seed,
    instance_generator,
    sample_guess_columns,
    sample_instances,
)
from .model import (
    BlockSensingMatrix,
    GuessEnsemble,
    RelaxedInstance,
    Selector,
    SupportPattern,
    apply_selector,
    effective_matrix,
    effective_stack,
    matvec_stack,
    solver_weights,
    weight_stack,
)
from .oracle import (
    GridOracleResult,
    OracleResult,
    SubsetOracleResult,
    discrete_lp_oracle,
    enumerate_selectors,
    l0_min_oracle,
)
from .reductions import (
    PartitionInstance,
    X3CInstance,
    decide_partition_via_lp,
    decide_x3c_via_l0,
    has_exact_cover,
    has_partition,
    partition_to_lp,
    x3c_to_l0,
)
from .solver import (
    CertificateResult,
    SolveOptions,
    SolveResult,
    certificate_for_instance,
    certificate_stack,
    kkt_certificate,
    recovery_check,
    solve_instance,
    solve_stack,
    solve_weighted_bp,
)
from .storage import load_instance, load_reduction, save_instance, save_reduction

__version__ = "0.1.0"

"""Single-shot discrimination of noisy quantum channels.

Builds the standard noisy channel families (depolarizing, dephasing and its
unitary generalization, amplitude damping, mixed-unitary ensembles, erasure)
as validated Kraus maps, evaluates how well two of them can be told apart in
a single shot under restricted probe classes (single system, product,
maximally or partially entangled, general bipartite), and cross-checks every
closed-form optimum against a see-saw probe optimizer.
"""

from .channels import (
    Channel,
    CPTPError,
    apply,
    apply_on_A,
    channel_from_dict,
    choi,
    make_amplitude_damping,
    make_depolarizing,
    make_dephasing,
    make_erasure,
    make_generalized_dephasing,
    make_mixed_unitary,
    mixed_unitary_pair_d3,
    mixed_unitary_pair_d6,
)
from .discrimination import (
    DiscriminationResult,
    ad_maxent_closed,
    ad_nonmax_closed,
    ad_nonmax_norm,
    ad_single_closed,
    dephasing_closed,
    depolarizing_maxent_closed,
    depolarizing_nonmax_closed,
    depolarizing_single_closed,
    discrim_fixed_entangled,
    discrim_fixed_single,
    ensemble_pairs,
    erasure_closed,
    gen_dephasing_closed,
    gen_dephasing_maxent_closed,
    gen_dephasing_optimal_probe,
    helstrom,
    hull_min_distance,
    hull_nearest_weights,
    mixed_unitary_maxent_bound,
    mixed_unitary_single_bound,
)
from .linalg import hermitian_eig, unitary_eigenphases
from .optimize import OptimizerOptions, optimize_entangled, optimize_pairs, optimize_single
from .probes import (
    PureProbe,
    basis_probe,
    bloch_qubit,
    max_entangled,
    nonmax_qubit,
    product_probe,
    random_bipartite,
    random_pure,
    schmidt_pair,
    uniform_superposition,
    zeta_probe,
)
from .verify import ScenarioReport, run_acceptance, run_criterion

__version__ = "0.1.0"

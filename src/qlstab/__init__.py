"""Quasi-local dissipative stabilizability: analysis, synthesis, dynamics.

Decide whether a target pure state of a multipartite system can be made the
unique attractor of purely dissipative Markovian dynamics whose noise
operators act only inside fixed neighborhoods; construct the stabilizing
operators, the associated parent Hamiltonian, and certify and simulate the
resulting evolution.
"""

__version__ = "0.1.0"

from .tensor import (
    CoverageWarning,
    DensityMatrix,
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    PureState,
    QLOperator,
    TensorSpace,
    apply_local,
    apply_local_unitary,
    basis_state,
    embed,
    embed_frame,
    make_dicke_4_2,
    make_ghz,
    make_graph_state,
    make_w,
    partial_trace,
    qubit_space,
    random_density_matrix,
    random_pure_state,
)
from .subspaces import (
    NumericalRankWarning,
    Subspace,
    complement,
    complete_frame,
    equals,
    full_space,
    intersect,
    projector,
    span,
    support,
)
from .analysis import (
    DqlsReport,
    NeighborhoodAnalysis,
    ParentHamiltonian,
    check_dqls,
    factorize_pure_state,
    is_frustration_free,
    parent_hamiltonian,
)
from .synthesis import (
    NotStabilizableError,
    StabilizerSet,
    gains_for,
    renormalize_generator,
    synthesize_block,
    synthesize_stabilizers,
)
from .dynamics import (
    DimensionCapError,
    GasCertificate,
    IntegrationError,
    InvarianceDiagnostics,
    LindbladGenerator,
    SpectrumReport,
    SwitchingSchedule,
    apply_generator,
    check_invariance,
    evolve,
    fidelity,
    fme_generator,
    gas_certificate,
    purity,
    simulate_switched,
    stabilizer_generator,
    stabilizer_generators,
    stack,
    switched_map,
    trace_distance,
    unstack,
    vectorize,
)

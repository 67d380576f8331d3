"""Quasi-local dissipative stabilizability: analysis, synthesis, dynamics.

Decide whether a target pure state of a multipartite system can be made the
unique attractor of purely dissipative Markovian dynamics whose noise
operators act only inside fixed neighborhoods; construct the stabilizing
operators, the associated parent Hamiltonian, and certify and simulate the
resulting evolution.
"""

__version__ = "0.1.0"

from .tensor import (
    DensityMatrix,
    DimensionMismatchError,
    LocalityPattern,
    Neighborhood,
    PureState,
    QLOperator,
    TensorSpace,
    apply_local,
    apply_local_unitary,
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
    Subspace,
    complete_frame,
    equals,
    intersect,
    projector,
    support,
)
from .analysis import (
    DqlsReport,
    ParentHamiltonian,
    check_dqls,
    is_frustration_free,
    parent_hamiltonian,
)
from .synthesis import (
    NotStabilizableError,
    StabilizerSet,
    gains_for,
    synthesize_block,
    synthesize_stabilizers,
)
from .dynamics import (
    DimensionCapError,
    GasCertificate,
    IntegrationError,
    InvarianceDiagnostics,
    LindbladGenerator,
    SwitchingSchedule,
    apply_generator,
    check_invariance,
    evolve,
    fidelity,
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

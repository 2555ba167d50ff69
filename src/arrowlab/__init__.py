"""arrowlab: entropy balance, correlation arrows, collision-model
thermalization and fluctuation relations for small bipartite quantum systems."""

from .core import (
    RNG_ALGORITHM,
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    basis_ket,
    gibbs_state,
    pure_state,
    random_density_operator,
    renyi2_of_matrix,
)
from .arrow import (
    TWO_QUBITS,
    Alignment,
    DescentProbe,
    EntropyBalanceReport,
    SweepGrid,
    UnitarySearchResult,
    classical_correlated_state,
    classical_decorrelating_unitary,
    decorrelating_unitary,
    near_product_state,
    schrodinger_checks,
    search_entropy_decreasing_unitaries,
    weak_coupling_sweep,
)
from .collisions import (
    ConvergenceReport,
    ReservoirSpec,
    TrajectoryRecord,
    convergence_report,
    partial_swap_unitary,
    reverse_collisions,
    run_collisions,
    run_collisions_joint,
)
from .fluctuation import (
    CrooksReport,
    HeatFlowReport,
    ProtocolStack,
    crooks_checks,
    damping_heats,
    effective_temperatures,
    heat_flow_trials,
    jarzynski_checks,
    random_protocols,
)

__version__ = "0.1.0"

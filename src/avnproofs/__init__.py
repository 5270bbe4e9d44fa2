"""Decide which qubit distributions of graph states admit all-versus-nothing proofs.

The package covers exact GF(2)/Pauli arithmetic, graph-state stabilizers
with an independent statevector oracle, element-of-reality decisions for
qubit distributions, minimum-party searches, the census of graph-state
classes under local complementation and isomorphism, and explicit
contradiction witnesses.
"""

from .equivalence import (
    CanonicalGraph,
    GraphClassRecord,
    canonical_form,
    classify_all,
    connected_graph_reps,
    graph_from_encoding,
    lc_orbit,
    local_complement,
)
from .errors import (
    LengthMismatchError,
    NonHermitianSignError,
    ParseError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .gf2 import gf2_solve, gf2_solve_explain, gf2_unit_solutions
from .graphstate import (
    Graph,
    complete_graph,
    cut_rank,
    expectation,
    format_graph,
    full_stabilizer,
    is_connected,
    parse_graph,
    path_graph,
    perfect_correlations_hold,
    relabel,
    ring_graph,
    star_graph,
    stabilizer_element,
    stabilizer_word,
    statevector,
)
from .pauli import (
    PauliOperator,
    format_word,
    pauli_multiply,
)
from .partitions import (
    all_avn_distributions,
    automorphisms,
    count_partitions_with_shape,
    enumerate_distributions,
    integer_partitions,
    min_party_distributions,
    minimal_shapes,
    shape_feasible,
)
from .reality import (
    AvnDecision,
    Distribution,
    allows_specific_avn,
    format_distribution,
    is_element_of_reality,
    parse_distribution,
)
from .reports import DistributionReport
from .witness import (
    AssignmentCheck,
    assignment_consistent,
    find_witness,
    format_witness,
    underrepresented_qubits,
    verify_witness,
)

__version__ = "0.1.0"

"""entkit: multipartite entanglement toolkit.

Named states, Schmidt and majorization analysis, three-qubit invariants and
tangles, separability classification with PPT tests, LOCC/SLOCC protocol
instruments, and optimization-based entanglement measures, all on dense
numpy arrays at desk scale.
"""

from .core import ConvergenceError, SizeLimitError, partial_trace_matrix
from .invariants import (
    AcinCanonicalForm,
    InvariantRecord,
    SloccClass,
    acin_canonical_form,
    hyperdet3,
    kempe_invariant,
    kempe_symmetric_check,
    lu_invariants,
    monogamy_gap,
    polytope_coords,
    slocc_class_3qubit,
    tangles,
    wootters_concurrence,
)
from .measures import (
    OptimizationResult,
    convex_roof,
    geometric_measure,
    meyer_wallach,
    multipartite_concurrence,
    tensor_rank_upper_bound,
    upb_unextendibility_check,
)
from .partitions import (
    ClassificationReport,
    Partition,
    all_bipartitions,
    classify_pure,
    enumerate_partitions,
    is_product_across,
    partial_transpose,
    ppt_all_bipartitions,
    ppt_check,
    refines,
)
from .protocols import (
    BranchOutcome,
    Instrument,
    combing_entropy_profile,
    entanglement_swap,
    local_filter,
    local_filter_pure,
    merging_rate,
    teleport,
    teleportation_kraus,
    unlock_smolin,
)
from .schmidt import (
    SchmidtData,
    catalysis_convertible,
    concurrence_pure,
    entanglement_entropy,
    find_catalyst,
    majorizes,
    nielsen_convertible,
    schmidt,
    schmidt_rank,
    schmidt_vector,
    tangle_pure,
)
from .serialize import from_document, load_state, dump_state, to_document
from .special import (
    AmeVerdict,
    Feasibility,
    ame_feasibility,
    ghz_stabilizer_check,
    ghz_stabilizer_elements,
    is_ame,
    is_lme,
    stabilizes,
)
from .states import (
    DensityMatrix,
    PureState,
    acin_state,
    as_density,
    basis_state,
    bell_basis_2q,
    bell_state,
    conditional_entropy,
    ghz_state,
    graph_state,
    partial_trace,
    phi_a_state,
    product_state,
    psi25_state,
    purity,
    random_density_matrix,
    random_pure_state,
    shannon_entropy,
    smolin_state,
    upb_basis,
    upb_state,
    von_neumann_entropy,
    w_state,
)

__version__ = "0.1.0"

"""kcb: exact crystal graphs and canonical bases for higher-level Fock
spaces in affine type A."""

from .laurent import (
    LaurentPoly,
    NotDivisibleError,
    exact_div,
    qint,
)
from .partitions import (
    Multipartition,
    Partition,
    conjugate,
    dominates,
    is_e_regular,
    transpose,
    transpose_each,
    triangular,
    u_family,
    vee,
)
from .fock import (
    FockContext,
    FockVector,
    apply_f_divided,
    content,
    symmetric_context,
)
from .crystal import (
    BlockReducedGraph,
    CrystalGraph,
    NotAVertexError,
    WeightInfo,
    block_reduced,
    e_tilde,
    f_tilde,
    generate_crystal,
    is_external,
    residue_collected_path,
    weight_info,
)
from .canonical import (
    CanonicalBasis,
    CanonicalElement,
    ReductionError,
    checked_element,
    diamond,
    is_svelte,
)
from .closedform import (
    ChoiceSequence,
    FamilySpec,
    choice_sequences,
    closed_canonical_family,
    defect_congruences,
    family_term,
    inv,
    shape_fn,
    shape_fn_closed,
    small_defect_families,
    tau,
)

__version__ = "0.1.0"

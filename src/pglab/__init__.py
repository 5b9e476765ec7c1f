"""pglab: a finite polyadic (n-ary) group engine."""

from .config import Caps, DEFAULT_CAPS, caps_from_env
from .groups import (
    Automorphism,
    FiniteGroup,
    Subgroup,
    automorphisms,
    enumerate_subgroups,
    make_automorphism,
    make_group,
)
from .catalog import catalog, catalog_group, groups_of_order
from .polyadic import (
    AxiomReport,
    DerivedPresentation,
    HosszuGloskin,
    PolyadicGroup,
    TablePresentation,
    all_derived,
    as_table,
    derive,
    derive_b,
    dornte_witness,
    from_table,
    hg_anchor0,
    hosszu_gloskin,
    is_reduced,
    n_ary_identity,
    retract,
    verify_axioms,
    verify_table_axioms,
)
from .substructures import (
    PolyadicSubgroup,
    enumerate_polyadic_subgroups,
    is_normal_polyadic,
    is_polyadic_subgroup,
)
from .congruence import (
    Congruence,
    KernelClass,
    LatticeOps,
    PolyadicQuotient,
    congruence_from_classes,
    congruences,
    congruences_bruteforce,
    congruences_theorem,
    enumerate_normal_polyadic,
    is_normal_congruence,
    kernel_class,
    lattice_ops,
    quotient_by_congruence,
    quotient_polyadic,
)
from .simplicity import (
    CensusEntry,
    SimplicityReport,
    census,
    is_gts,
    is_gts_star,
    is_uas,
    simplicity_report,
)
from .morphisms import (
    HomDecomposition,
    PolyadicHom,
    are_isomorphic,
    binary_homs,
    compose_hom,
    decompose_hom,
    enumerate_homs,
    is_polyadic_hom,
)
from .corpus import corpus_bases, standard_corpus

__version__ = "0.1.0"

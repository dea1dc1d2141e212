"""Finite simplicial sets with subdivision, desingularization, and the
comparison machinery relating them to nerves of posets."""

from .colimits import (
    Congruence,
    ProductResult,
    PushoutResult,
    QuotientResult,
    collapse_subcomplex,
    congruence_from_pairs,
    disjoint_union,
    is_regular,
    kernel_congruence,
    product,
    pushout,
    quotient,
    regularity_witness,
)
from .corpus import Corpus, CorpusEntry, gen_corpus, load_corpus, save_corpus, sd_size
from .cylinders import (
    CylinderBundle,
    as_poset_nerve,
    cone,
    cylinder_reduction,
    dcr,
    embedded_sibling_pairs,
    identifies_embedded_siblings,
    injective_in_degree,
    pushout_comparison,
    representing_sharp,
    surjective_in_degree,
)
from .desingularize import (
    Certificate,
    DesingResult,
    desingularized_comparison,
    oracle_desingularize,
    zipper_desingularize,
)
from .operators import (
    Operator,
    all_faces,
    all_operators,
    compose,
    ez_factor,
    identity,
    make_degen,
    make_face,
    make_vertex,
)
from .posets import (
    FinPoset,
    MonotoneMap,
    all_posets,
    barratt,
    barratt_map,
    chain_poset,
    face_poset,
    is_dwyer,
    map_into_nerve,
    nerve,
    nerve_map,
    poset_pushout,
    product_poset,
    sharp,
    sharp_map,
    singleton_poset,
)
from .simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    boundary,
    generate,
    representing_map,
    simplex_map,
    standard_simplex,
)
from .subdivision import b_nat, last_vertex, sd, sd_map, t_nat
from .verify import (
    Report,
    format_report,
    merge_reports,
    run_counterexamples,
    verify_dcr_suite,
    verify_lemma_suite,
    verify_main_theorem,
    verify_second_subdivision,
)

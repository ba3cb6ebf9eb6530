"""Rainbow-set (choice-function) algorithms over set families, graphs,
matroids, and directed networks, with a conjecture-sweeping harness."""

__version__ = "0.1.0"

from .core import (
    ChoiceFunction,
    ColoredFamily,
    Graph,
    GroundSet,
    HypothesisViolation,
    InstanceError,
    LatinSquare,
    Matching,
    Network,
    ResourceCapError,
    TheoremViolation,
    Transversal,
    WeightMap,
    family_union,
    find_bipartition,
    is_rainbow,
    matching_check,
    max_matching,
    transversal_check,
)
from .matching import (
    ArrowStatement,
    EdgeFamily,
    SizeSequence,
    check_arrow_instance,
    check_sequence_instance,
    cooperative_drisko_check,
    drisko_statement,
    max_rainbow_matching,
    random_matching_family,
    repeats_matching,
    scrambled_matching_check,
    stairs_sequence,
    validate_scrambling,
)
from .matroids import (
    IndependenceOracle,
    binary_matroid,
    check_two_cover,
    covering_number,
    direct_sum,
    free_matroid,
    from_descriptor,
    graphic_matroid,
    matroid_intersection,
    partition_matroid,
    truncate,
    uniform_matroid,
)
from .networks import (
    BipartifiedNetwork,
    PathEnforcer,
    TowerPair,
    bipartify,
    build_towers,
    enforcer_union_bounds,
    nu_p,
    rainbow_disjoint_paths,
    rainbow_path_weighted,
    scrambled_rainbow_path,
    validate_st_path,
)
from .spancycles import (
    augmented_vector,
    cooperative_odd_cycle_check,
    edge_vectors,
    is_bipartite_via_span,
    rainbow_odd_cycle,
    rainbow_spanning_set,
)
from .sweeps import SweepReport, SweepSpec
from .transversals import Violator, hall_rainbow, rado_rainbow
from .harness import (
    enumerate_latin_squares,
    latin_transversal,
    rainbow_short_cycle,
    random_matroid,
    rota_scrambled_search,
    run_sweep,
)

"""pstlab: exact spectral toolkit for perfect state transfer on weighted
graphs."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    Graph,
    GraphError,
    GraphParseError,
    delete_vertices,
    double_star,
    eccentricity,
    hypercube,
    laplacian_form,
    parse_graph,
    parse_graph6,
    path,
    separating_cut_edge,
    star,
)
from .polys import (  # noqa: F401
    Poly,
    RatFunc,
    RootBox,
    charpoly,
    isolate_real_roots,
    path_sum_poly,
    poly_gcd,
    square_free_part,
)
from .spectra import (  # noqa: F401
    SupportPartition,
    is_cospectral,
    is_strongly_cospectral,
    min_support_gap,
    projector_entries,
    support_partition,
    support_poly,
)
from .pst import PstCertificate, decide_pst, fit_quadratic_spectrum, pst_pairs  # noqa: F401
from .gapcert import (  # noqa: F401
    GapCertificate,
    alpha_pair,
    arrow_matrix,
    bridge_gap_check,
    certify_gap,
    general_bound,
    merged_alphas,
    partial_fraction,
    residue_mass,
)
from .trees import canonical_code, enumerate_trees, tree_count  # noqa: F401
from .walk import fidelity, fidelity_scan, verify_certificate  # noqa: F401

"""Exact rational computation of monochrome and colourful simplicial depth.

Core surfaces:

- `exact`: rational points and the geometric predicates everything rests on;
- `depth`: depth counting, core membership, per-point simplex counts;
- `constructions`: self-verifying generators for the extremal configurations;
- `arrangements`: the exact circle cell engine for two planar colour classes;
- `audits`: seeded randomized audits of parity laws and depth bounds;
- `serialization` and `cli`: stable JSON/CSV formats and the command line.
"""

from .arrangements import (
    CellReport,
    CircularArrangement,
    DegenerateArrangementError,
    Ray,
    canonical_rotation,
    cell_depth_sequence,
    crossing_delta,
    cyclic_equal,
    verify_cell_depth_lemma,
)
from .audits import (
    AuditReport,
    AuditViolation,
    TrialRecord,
    depth_stats,
    mu_audit,
    nu_audit,
    parity_audit,
    write_csv,
)
from .constructions import (
    ConstructionError,
    VerifiedConfiguration,
    gen_identical,
    gen_random_core_config,
    gen_regular_ngon,
    gen_sminus,
    gen_splus,
    gen_sprime,
)
from .depth import (
    ColourfulConfiguration,
    ConeCount,
    CoreSampleError,
    DepthReport,
    antipodal_cone_count,
    colour_decomposition,
    colourful_depth,
    core_depth_samples,
    core_membership,
    min_core_depth_estimate,
    monochrome_depth,
    zero_containing_count,
)
from .exact import (
    DegenerateConeError,
    InputError,
    Point,
    barycentric_coordinates,
    cone_contains,
    in_convex_hull,
    in_general_position,
    in_general_position_with,
    orientation,
    origin,
    point_in_simplex,
    pt,
)
from .serialization import (
    config_from_dict,
    config_to_dict,
    load_config,
    load_points,
    parse_fraction,
    parse_point,
    save_config,
    save_points,
)

__version__ = "0.1.0"

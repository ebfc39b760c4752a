"""catbound: exact caterpillar bounds for trees.

Two ways of flattening a tree into a caterpillar are covered: contracting
edges (every m-edge tree reaches a guaranteed size, with spiders extremal)
and taking induced subtrees after vertex removal (with stars of beautiful
branches extremal).  A segment-family duality maps both questions to
alternating paths through disjoint segments in convex position.

A value the library judges (a count, a vertex id, a root, a segment label,
a path endpoint) that is not an ``int`` or is out of range raises one
``ValueError`` naming it.  That rule covers values only.  An argument of
the wrong class, such as ``None`` where a ``Tree`` belongs, may raise
``TypeError`` or ``AttributeError``: ``max_caterpillar(None)`` raises
``AttributeError``, and so do ``diameter``, ``canonical_code`` and
``is_spider``.  The library adds no ``isinstance`` checks for object
parameters.
"""

from types import ModuleType as _Module

from .contraction import (
    ContractionPlan,
    ContractionStep,
    build_spider,
    contract_to_caterpillar,
    contraction_guarantee,
    extremal_size_contraction,
    extremal_spider,
    max_caterpillar_by_contraction,
    max_edges_diameter_leaves,
)
from .duality import (
    AlternatingPath,
    PathReport,
    SegmentFamily,
    among_path,
    compatible_path,
    realize_coordinates,
    segments_to_tree,
    tree_to_segments,
    validate_path,
)
from .induced import (
    BeautifulProfile,
    CaterpillarWitness,
    beautiful_profile,
    beautiful_tree,
    branch_arity,
    branch_star_bound,
    extremal_branch_star,
    extremal_size_induced,
    induced_guarantee,
    induced_guarantee_reference,
    induced_guarantee_residue,
    max_branch_size,
    max_caterpillar,
    tree_from_profile,
    very_hungry_max,
)
from .oracle import (
    FREE_TREE_COUNTS,
    CheckRecord,
    VerificationReport,
    brute_max_caterpillar,
    free_trees,
    guarantee_change_points,
    tree_from_pruefer,
    verify_all,
)
from .render import render_segments, render_tree
from .trees import (
    Tree,
    TreeParseError,
    canonical_code,
    centroids,
    diameter,
    diameter_path,
    format_tree,
    is_caterpillar,
    is_spider,
    parse_tree,
)

__version__ = "0.1.0"

# the names imported above, so that each public name is listed once
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module)
) + ["__version__"]

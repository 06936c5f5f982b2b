"""Exact stationary distributions of random walks on finite semigroups.

Build a finite semigroup with chosen generators, expand its right Cayley
graph (transition-edge identification followed by the simple-path
expansion), read off normal forms and walk-language expressions, and
evaluate the stationary distribution as exact rationals; verify against a
float power-iteration oracle and seeded Monte Carlo walks.
"""

from .core import (
    ASemigroup,
    ClosureTooLarge,
    GeneratorsDoNotGenerate,
    IdealSet,
    NotAssociative,
    SemigroupError,
    SizeCapExceeded,
    bar,
    flat,
    kernel_is_left_zero,
    minimal_ideal,
    semigroup_from_table,
    semigroup_from_transformations,
)
from .graphs import (
    RootedLabeledGraph,
    right_cayley,
    sccs,
    to_dot,
    transition_edges,
)
from .expansions import (
    ExpansionTree,
    KRExpansion,
    karnofsky_rhodes,
    mccammond,
)
from .kleene import (
    DivergentStar,
    EPSILON,
    KleeneExpr,
    Letter,
    Star,
    Union,
    concat,
    evaluate_expr,
    pretty,
    series,
    star,
    union,
    zimin_rewrite,
)
from .stationary import (
    StationaryEngine,
    StationaryResult,
    expressions_report,
    normalization_check,
    parse_probs,
    stationary_kr,
    stationary_s,
    uniform_probs,
    validate_probs,
)
from .chains import (
    MixingBound,
    NotConverged,
    NotIrreducible,
    TransitionMatrix,
    build_chain,
    check_lumping,
    mixing_bound,
    stationary_oracle,
    tv_distance,
)
from .simulate import (
    EmpiricalDistribution,
    SplitMix64,
    mix64,
    simulate_semaphore,
    simulate_state_at,
    walker_seed,
)
from .families import FamilySpec, build, closed_form, parse_family
from .specio import load_spec, semigroup_from_spec

__version__ = "0.1.0"

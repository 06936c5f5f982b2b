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
    adjoin_zero,
    bar,
    flat,
    is_left_zero,
    kernel_is_left_zero,
    minimal_ideal,
    opposite,
    principal_ideal,
    rees_quotient,
    semigroup_from_table,
    semigroup_from_transformations,
)
from .graphs import (
    RootedLabeledGraph,
    graphs_isomorphic,
    left_cayley,
    right_cayley,
    sccs,
    to_dot,
    transition_edges,
)
from .expansions import (
    ExpansionTree,
    KRExpansion,
    is_mc_stable,
    is_stable1,
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
    enumerate_words,
    evaluate_expr,
    pretty,
    series,
    star,
    union,
    zimin_rewrite,
)
from .stationary import (
    NotACodeWord,
    StationaryEngine,
    StationaryResult,
    expressions_report,
    ideal_preimage_predicate,
    is_code_word,
    lump_by_classifier,
    nf_preimage_expr,
    normal_forms,
    normalization_check,
    parse_probs,
    semaphore_left_action,
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

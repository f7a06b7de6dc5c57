"""Exact inference for two-variable weighted-formula models (Markov logic
networks) with cardinality and function constraints, polynomial in the
domain size.

The partition function, marginals, and full count distributions are all
computed through complex-weighted first-order model counting; count
distributions go through a discrete Fourier transform whose frequencies are
all evaluated in one weighted count with array weights.  An exhaustive
world-enumeration oracle cross-validates everything at small domain sizes.
"""

from .brute import (
    brute_count_distribution, brute_mln_marginal, brute_mln_partition,
    brute_wfomc,
)
from .constraints import (
    Between, CardinalityConstraint, CardinalityPredicate, Conjunction,
    CustomPredicate, Equals, FunctionConstraint, TautologyTrue,
    analytic_fixed_points, constrained_marginal, constrained_partition,
    fixed_point_distribution, rewrite_function_constraints,
)
from .errors import (
    BruteForceCapError, FormulaSyntaxError, InfeasibleConstraintError,
    MlncountError, NumericOverflowError, NumericResidueError,
    TooManyVariablesError, UnsupportedSentenceError, VocabularyError,
)
from .lifted import CompiledTheory, Fo2Theory, compile_theory
from .logic import (
    And, Atom, Domain, Eq, Exists, FALSE, ForAll, Formula, Iff, Implies, Not,
    Or, Predicate, TRUE, Var, WeightFunction, free_variables, groundings,
    pretty, universal_closure,
)
from .mln import Mln, marginal, partition_function, translate_mln
from .modelfile import Model, parse_model, parse_model_text
from .parser import parse_formula
from .spectrum import (
    CountDistribution, CountSpec, Spectrum, count_distribution, full_spectrum,
    inverse_dft, inverse_dft_raw, shape_vector,
)

__version__ = "0.1.0"

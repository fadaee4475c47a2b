"""skic: a symbolic compression compiler for a minimal functional language.

Programs are parsed into a lambda-calculus IR, type-specialized by
energy-based inference, compressed into SKI combinator (GAEL) form
under an MDL objective, verified by probe-based behavioral equivalence,
measured for token compression and information density, and explained
through an exactly invertible controlled-English mapping.
"""

from .lambda_ir import (
    App,
    BoolLit,
    Comb,
    FuelExhausted,
    IntLit,
    Lam,
    ParseError,
    Prim,
    Program,
    Term,
    Var,
    alpha_equivalent,
    beta_reduce,
    parse_program,
    parse_term,
    pretty_print,
)
from .ski_core import (
    ProbeConfig,
    RuleSet,
    Verdict,
    behavioral_equal,
    bracket_abstract,
    gael_print,
    parse_gael_program,
    ski_decode,
    ski_reduce,
)
from .metrics import (
    approx_kolmogorov,
    compression_rate,
    symbolic_density,
    tokenize,
)
from .type_infer import (
    ContextEnv,
    TypeTag,
    build_constraints,
    energy,
    map_assignment,
    posterior,
    specialize_operators,
)
from .mdl_opt import (
    CompressionPlan,
    MdlConfig,
    compress_program,
    compress_term,
    extract_common_subterms,
    mdl_objective,
    semantic_distance,
)
from .explainer import ExplanationDoc, explain_term, parse_explanation
from .cli_pipeline import PipelineReport, emit_target, run_corpus, run_pipeline

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"

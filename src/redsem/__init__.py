"""Reduction semantics with evaluation contexts, executable.

Terms, contexts, and patterns; grammars with left-recursion analysis; a
terminating matcher/decomposer; an independent brute-force oracle for the
matching and decomposition judgments; context-sensitive reduction rules;
and an s-expression surface syntax with a CLI.

The imports below are the public API, the names the README's Library
section lists; everything else is imported from its submodule.
"""

from .errors import EngineError
from .grammar import (
    Grammar,
    Production,
    ProductionNotFoundError,
    find_left_recursion,
    hole_matchable,
    is_left_recursive,
    new_grammar,
    productions_of,
    remove_prod,
)
from .language import (
    LanguageError,
    MultipleHolesError,
    NoHoleError,
    ParseError,
    load_language,
    parse_pattern,
    parse_term,
    print_bindings,
    print_context,
    print_term,
)
from .matching import (
    Bindings,
    ContextDecomposition,
    EmptyDecomposition,
    MatchResult,
    MeasureViolationError,
    SoundnessCheckError,
    decompose,
    match_decompose,
    matches,
)
from .oracle import (
    OracleFuelError,
    enumerate_decompositions,
    oracle_decompose,
    oracle_match,
    oracle_match_original,
)
from .reduction import (
    TemplateContextError,
    Trace,
    UnboundTemplateVariableError,
    step,
    trace,
)
from .terms import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    CtxTerm,
    HeadCtx,
    Hole,
    HolePat,
    InHolePat,
    ListPat,
    ListTerm,
    Literal,
    LitPat,
    NamePat,
    NtPat,
    TailCtx,
    plug,
)

import types as _types

# importing a submodule binds it here too; only the imported names export
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]

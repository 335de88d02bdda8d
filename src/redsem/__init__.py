"""Reduction semantics with evaluation contexts, executable.

Terms, contexts, and patterns; grammars with left-recursion analysis; a
terminating matcher/decomposer; an independent brute-force oracle for the
matching and decomposition judgments; context-sensitive reduction rules;
and an s-expression surface syntax with a CLI.
"""

from .errors import EngineError
from .grammar import (
    Grammar,
    Production,
    ProductionNotFoundError,
    find_left_recursion,
    hole_matchable,
    is_left_recursive,
    is_subgrammar,
    new_grammar,
    productions_of,
    remove_prod,
)
from .language import (
    LanguageDef,
    LanguageError,
    MultipleHolesError,
    NoHoleError,
    check_pattern_nonterminals,
    load_language,
    parse_language,
    parse_pattern,
    parse_template,
    parse_term,
    print_bindings,
    print_context,
    print_pattern,
    print_template,
    print_term,
    to_context,
)
from .matching import (
    Bindings,
    ContextDecomposition,
    EmptyDecomposition,
    MatchResult,
    MeasureViolationError,
    SoundnessCheckError,
    bindings_union,
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
    HoleTemplate,
    InHoleTemplate,
    ListTemplate,
    LitTemplate,
    RefTemplate,
    Rule,
    Template,
    TemplateContextError,
    Trace,
    UnboundTemplateVariableError,
    apply_rule,
    instantiate,
    step,
    trace,
)
from .sexpr import ParseError
from .terms import (
    HOLE,
    HOLE_PAT,
    HOLE_TERM,
    Context,
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
    Pattern,
    TailCtx,
    Term,
    compose,
    context_hole_count,
    is_proper_subterm,
    plug,
)

import types as _types

__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]

"""Reduction semantics with evaluation contexts, executable.

Terms, contexts, and patterns; grammars with left-recursion analysis; a
terminating matcher/decomposer; an independent brute-force oracle for the
matching and decomposition judgments; context-sensitive reduction rules;
and an s-expression surface syntax with a CLI.

The public API is the names the README's Library section lists,
``__all__``; everything else is imported from its submodule.  Importing
the package loads only the layers every answering request uses: terms
and the rule syntax, grammars, the matcher and the reader.  The reducer
(`redsem.reduction`) and the oracle (`redsem.oracle`) load on first use:
their public names, and the two submodule attributes, are resolved by
the module ``__getattr__`` below.  It looks each name up in its module
on every access and never binds it here, so a wrapper installed on the
submodule is seen through ``redsem`` too, and removing the wrapper
leaves nothing behind.
"""

import types as _types
from importlib import import_module as _import_module

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
    SoundnessCheckError,
    decompose,
    match_decompose,
    matches,
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
    UnboundTemplateVariableError,
    plug,
)

# the public names of the layers loaded on first use, by submodule
_LAZY = {
    "oracle": (
        "OracleFuelError",
        "enumerate_decompositions",
        "oracle_decompose",
        "oracle_match",
        "oracle_match_original",
    ),
    "reduction": ("TemplateContextError", "Trace", "step", "trace"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# importing a submodule binds it here too; only the imported names export
__all__ = [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
] + list(_HOME)


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})

"""Three-valued LTL toolkit: automaton translation, lasso-word
evaluation, model checking, and DOT/HOA output.

The package exports are resolved lazily (PEP 562): a name is imported
from its module the first time it is read, and then kept in the package
namespace.  So `import triltl` alone loads no module, and a program
pays only for the modules whose names it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each module and the names the package exports from it.
_MODULE_EXPORTS = {
    "emit": ("HoaAutomaton", "HoaFormatError", "read_hoa", "to_dot", "to_hoa"),
    "gnba": (
        "ABSENT",
        "DEFAULT_CANDIDATE_CAP",
        "Gnba",
        "NEG",
        "Nba",
        "POS",
        "StateSpaceLimitError",
        "StateVec",
        "acceptance_sets",
        "build_automaton",
        "build_family",
        "degeneralize",
        "enumerate_elementary",
        "format_state",
        "state_members",
        "state_pattern",
    ),
    "letters": (
        "Letter",
        "LetterFormatError",
        "UnknownAtomError",
        "format_letter",
        "make_letter",
        "parse_letter",
        "parse_letter_sequence",
        "restrict_letter",
    ),
    "modelcheck": (
        "ModelFormatError",
        "TransitionModel",
        "Verdict",
        "check_model",
        "letter_of",
        "nba_accepts_lasso",
        "parse_model",
        "product_nonempty",
    ),
    "semantics": (
        "LassoFormatError",
        "LassoWord",
        "eval_lasso",
        "lasso",
    ),
    "syntax": (
        "And",
        "Atom",
        "Closure",
        "Formula",
        "FormulaSyntaxError",
        "MAX_NESTING",
        "Next",
        "Not",
        "TrueConst",
        "TRUE",
        "Until",
        "atoms_of",
        "closure_of",
        "format_formula",
        "formula_size",
        "negated",
        "parse_core",
    ),
    "truth": ("Truth", "parse_truth"),
}

#: Exported name -> the module that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

_SUBMODULES = frozenset(_MODULE_EXPORTS) | {"cli", "search"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # Importing a submodule also binds it in the package namespace.
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

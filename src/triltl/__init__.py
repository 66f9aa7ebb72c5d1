"""Three-valued LTL toolkit: automaton translation, lasso-word
evaluation, model checking, and DOT/HOA output."""

from .elementary import (
    ABSENT,
    DEFAULT_CANDIDATE_CAP,
    NEG,
    POS,
    StateSpaceLimitError,
    StateVec,
    enumerate_elementary,
    format_state,
    is_consistent,
    is_locally_consistent,
    state_members,
)
from .emit import HoaAutomaton, HoaFormatError, read_hoa, to_dot, to_hoa
from .gnba import (
    Gnba,
    Nba,
    acceptance_sets,
    build_automaton,
    build_family,
    degeneralize,
    state_pattern,
    successors,
)
from .letters import (
    Letter,
    LetterFormatError,
    UnknownAtomError,
    all_letters,
    format_letter,
    make_letter,
    parse_letter,
    parse_letter_sequence,
    restrict_letter,
)
from .modelcheck import (
    ModelFormatError,
    TransitionModel,
    Verdict,
    check_model,
    letter_of,
    nba_accepts_lasso,
    parse_model,
    product_nonempty,
)
from .semantics import (
    LassoFormatError,
    LassoWord,
    NonTotalLetterError,
    enumerate_lassos,
    eval_lasso,
    eval_lasso_two_valued,
    lasso,
    parse_lasso,
)
from .syntax import (
    And,
    Atom,
    Closure,
    FalseConst,
    Finally,
    Formula,
    FormulaSyntaxError,
    Globally,
    Implies,
    MAX_NESTING,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    TRUE,
    Until,
    atoms_of,
    closure_of,
    desugar,
    format_formula,
    formula_size,
    negated,
    parse,
    parse_core,
)
from .truth import Truth, parse_truth

__version__ = "0.1.0"

"""Command-line interface: translate, check, and eval subcommands.

Exit codes: 0 on success (whatever the verdict), 2 on usage or input
errors, 3 when the state-space cap is exceeded.  Results go to stdout,
diagnostics to stderr.  A failed internal invariant (a witness that
does not re-evaluate to its verdict, overlapping label tables)
raises RuntimeError, which is never reported as a usage error: the
process prints the traceback and exits with code 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

# Each runner imports the modules its subcommand needs, so that a
# process loads only those (`eval` loads no automaton code).

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(ValueError):
    pass


def _parse_alphabet(text: str) -> tuple[str, ...]:
    from .syntax import is_atom_name

    atoms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not is_atom_name(chunk):
            raise UsageError(f"bad atom name {chunk!r} in alphabet")
        if chunk in atoms:
            raise UsageError(f"duplicate atom {chunk!r} in alphabet")
        atoms.append(chunk)
    if not atoms:
        raise UsageError("alphabet must name at least one atom")
    return tuple(atoms)


def _state_cap(cap: Optional[int]) -> int:
    """The --state-cap value, or the library's default when it is not given."""
    if cap is None:
        from .gnba import DEFAULT_CANDIDATE_CAP

        return DEFAULT_CANDIDATE_CAP
    if cap < 1:
        raise UsageError("--state-cap must be a positive count")
    return cap


def _write_output(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None


def _run_translate(args: argparse.Namespace) -> int:
    from .emit import hoa_propositions, to_dot, to_hoa
    from .gnba import build_automaton
    from .syntax import parse_core
    from .truth import parse_truth

    if args.out_dot is None and args.out_hoa is None:
        raise UsageError("translate needs --out-dot and/or --out-hoa")
    if None not in (args.out_dot, args.out_hoa):
        from os.path import realpath

        if realpath(args.out_dot) == realpath(args.out_hoa):
            raise UsageError("--out-dot and --out-hoa name the same file")
    alphabet = _parse_alphabet(args.alphabet)
    if args.out_hoa is not None:
        hoa_propositions(alphabet)
    value = parse_truth(args.value)
    psi = parse_core(args.formula)
    automaton = build_automaton(psi, alphabet, value, cap=_state_cap(args.state_cap))
    if args.out_dot is not None:
        _write_output(args.out_dot, to_dot(automaton))
    if args.out_hoa is not None:
        _write_output(args.out_hoa, to_hoa(automaton))
    print(
        f"states={len(automaton.states)} "
        f"initial={len(automaton.initial)} "
        f"accsets={automaton.all_marks.bit_length()}"
    )
    return EXIT_OK


def _run_check(args: argparse.Namespace) -> int:
    from .modelcheck import check_model, parse_model
    from .syntax import parse_core

    try:
        with open(args.model, "r", encoding="utf-8") as handle:
            document = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read model: {exc}") from None
    model = parse_model(document)
    psi = parse_core(args.formula)
    alphabet = None if args.alphabet is None else _parse_alphabet(args.alphabet)
    result = check_model(model, psi, alphabet, cap=_state_cap(args.state_cap))
    print(result.value.token)
    if result.witness is not None:
        stem, loop = result.witness
        print(f"{' '.join(stem)} ; {' '.join(loop)}".strip())
    return EXIT_OK


def _run_eval(args: argparse.Namespace) -> int:
    from .letters import letter_atoms, parse_letter_sequence
    from .semantics import eval_lasso, lasso
    from .syntax import atoms_of, parse_core

    psi = parse_core(args.formula)
    stem = parse_letter_sequence(args.stem)
    loop = parse_letter_sequence(args.loop)
    if not loop:
        raise UsageError("--loop must contain at least one letter")
    if args.alphabet is not None:
        alphabet = _parse_alphabet(args.alphabet)
    else:
        names = set(atoms_of(psi))
        for letter in (*stem, *loop):
            names |= letter_atoms(letter)
        alphabet = tuple(sorted(names))
    word = lasso(stem, loop, alphabet)
    print(eval_lasso(psi, word).token)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triltl",
        description=(
            "Translate three-valued LTL into Buchi automata, model-check "
            "transition models, and evaluate formulas on lasso words."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    translate = sub.add_parser(
        "translate", help="build an automaton and write DOT and/or HOA files"
    )
    translate.add_argument("--formula", required=True, help="LTL formula text")
    translate.add_argument(
        "--alphabet", required=True, help="comma-separated atomic propositions"
    )
    translate.add_argument(
        "--value", required=True, help="truth value: top/bot/uu (t/f/u, true/false/undef)"
    )
    translate.add_argument("--out-dot", help="path for the DOT output")
    translate.add_argument("--out-hoa", help="path for the HOA output")
    translate.add_argument(
        "--state-cap",
        type=int,
        help="abort when 3^(closure size) exceeds this count",
    )

    check = sub.add_parser("check", help="three-valued verdict of a formula on a model")
    check.add_argument("--model", required=True, help="path to the JSON model file")
    check.add_argument("--formula", required=True, help="LTL formula text")
    check.add_argument("--alphabet", help="override the inferred alphabet")
    check.add_argument("--state-cap", type=int)

    evaluate = sub.add_parser("eval", help="evaluate a formula on a lasso word")
    evaluate.add_argument("--formula", required=True, help="LTL formula text")
    evaluate.add_argument(
        "--stem", required=True, help='finite prefix, e.g. "a;!a" (may be empty)'
    )
    evaluate.add_argument("--loop", required=True, help='repeated part, e.g. "a,!b"')
    evaluate.add_argument("--alphabet", help="override the inferred alphabet")

    return parser


_RUNNERS = {"translate": _run_translate, "check": _run_check, "eval": _run_eval}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        from .gnba import StateSpaceLimitError

        if not isinstance(exc, StateSpaceLimitError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())

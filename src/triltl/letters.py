"""Letters: consistent sets of signed atoms, read as per-atom truth values.

A letter contains (atom, True) for atoms that hold, (atom, False) for
atoms that fail, and omits atoms whose value is unknown.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .syntax import is_atom_name

Literal = tuple[str, bool]
Letter = frozenset  # frozenset[Literal]


class UnknownAtomError(ValueError):
    """An atom falls outside the declared alphabet."""


class LetterFormatError(ValueError):
    """Malformed letter text or an inconsistent literal set."""


def make_letter(
    literals: Iterable[Literal], alphabet: Optional[Sequence[str]] = None
) -> Letter:
    """Build a letter, checking consistency and (optionally) the alphabet."""
    letter = frozenset(literals)
    names = [name for name, _ in letter]
    if len(set(names)) != len(names):
        clash = sorted(n for n in set(names) if names.count(n) > 1)
        raise LetterFormatError(f"inconsistent letter: both {clash[0]} and !{clash[0]}")
    if alphabet is not None:
        for name in names:
            if name not in alphabet:
                raise UnknownAtomError(f"unknown atom {name!r}")
    return letter


def restrict_letter(letter: Letter, atoms) -> Letter:
    """Drop literals whose atom is not in `atoms`."""
    return frozenset(lit for lit in letter if lit[0] in atoms)


def letter_atoms(letter: Letter) -> frozenset[str]:
    return frozenset(name for name, _ in letter)


def all_letters(alphabet: Sequence[str]) -> tuple[Letter, ...]:
    """All 3^n consistent letters over the alphabet.

    Ordered with earlier atoms varying slowest and each atom cycling
    through unset, positive, negative.
    """
    letters: list[frozenset] = [frozenset()]
    for name in alphabet:
        extended = []
        for base in letters:
            extended.append(base)
            extended.append(base | {(name, True)})
            extended.append(base | {(name, False)})
        letters = extended
    return tuple(letters)


def format_letter(letter: Letter) -> str:
    """Comma-separated literals ("a,!b"), or the empty-set symbol."""
    if not letter:
        return "∅"
    return ",".join(
        ("" if positive else "!") + name for name, positive in sorted(letter)
    )


def parse_letter(text: str, alphabet: Optional[Sequence[str]] = None) -> Letter:
    """Parse "a,!b" into a letter; blank text is the empty letter."""
    literals = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        positive = True
        if chunk.startswith("!"):
            positive = False
            chunk = chunk[1:].strip()
        if not is_atom_name(chunk):
            raise LetterFormatError(f"bad literal {chunk!r}")
        literals.append((chunk, positive))
    return make_letter(literals, alphabet)


def parse_letter_sequence(
    text: str, alphabet: Optional[Sequence[str]] = None
) -> list[Letter]:
    """Parse ";"-separated letters; blank text is the empty sequence."""
    if not text.strip():
        return []
    return [parse_letter(chunk, alphabet) for chunk in text.split(";")]

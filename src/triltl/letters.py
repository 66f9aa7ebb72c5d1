"""Letters: consistent sets of signed atoms, read as per-atom truth values.

A letter contains (atom, True) for atoms that hold, (atom, False) for
atoms that fail, and omits atoms whose value is unknown.
"""

from __future__ import annotations

from typing import Iterable

from .syntax import is_atom_name

Literal = tuple[str, bool]
Letter = frozenset  # frozenset[Literal]


class UnknownAtomError(ValueError):
    """An atom falls outside the declared alphabet, or an alphabet names
    something that is no atom name."""


class LetterFormatError(ValueError):
    """Malformed letter text or an inconsistent literal set."""


def make_letter(literals: Iterable[Literal]) -> Letter:
    """Build a letter, checking that no atom is both true and false."""
    letter = frozenset(literals)
    names = [name for name, _ in letter]
    if len(set(names)) != len(names):
        clash = sorted(n for n in set(names) if names.count(n) > 1)
        raise LetterFormatError(f"inconsistent letter: both {clash[0]} and !{clash[0]}")
    return letter


def restrict_letter(letter: Letter, atoms) -> Letter:
    """Drop literals whose atom is not in `atoms`."""
    return frozenset(lit for lit in letter if lit[0] in atoms)


def letter_atoms(letter: Letter) -> frozenset[str]:
    return frozenset(name for name, _ in letter)


def format_letter(letter: Letter) -> str:
    """Comma-separated literals ("a,!b"), or the empty-set symbol."""
    if not letter:
        return "∅"
    return ",".join(
        ("" if positive else "!") + name for name, positive in sorted(letter)
    )


def parse_letter(text: str) -> Letter:
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
    return make_letter(literals)


def parse_letter_sequence(text: str) -> list[Letter]:
    """Parse ";"-separated letters; blank text is the empty sequence."""
    if not text.strip():
        return []
    return [parse_letter(chunk) for chunk in text.split(";")]

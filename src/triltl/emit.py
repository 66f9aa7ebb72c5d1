"""Serializers: DOT for viewing, HOA for machine consumption.

Both emitters are pure functions of the automaton and produce
byte-identical output across runs (LF newlines, fixed ordering).

Letters carry three values per atom, which HOA's boolean propositions
cannot express directly; each atom q therefore becomes two
propositions, "q" and "q__neg".  Exactly one of the three consistent
combinations appears on every emitted edge (q true, q__neg true, or
both false); both true never occurs.  An alphabet holding both q and
q__neg has no such encoding, and `to_hoa` refuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gnba import Gnba
from .letters import Letter, format_letter


class HoaFormatError(ValueError):
    """Input is not in the emitted HOA dialect."""


def _acceptance_texts(g: Gnba, sep: str) -> list[str]:
    """Per state, the indices of the acceptance sets holding it, joined
    by `sep`: one text per distinct mark of `g.marks`."""
    count = g.all_marks.bit_length()
    texts = {
        mask: sep.join(str(k) for k in range(count) if mask >> k & 1) for mask in set(g.marks)
    }
    return list(map(texts.__getitem__, g.marks))


def _target_names(g: Gnba, ids: list[str]) -> dict[int, list[str]]:
    """The target id strings of each successor tuple, by the tuple's
    `id`: states whose linkage masks are equal share one tuple object
    (see `build_family`), so each shared list is made once."""
    distinct = {id(targets): targets for targets in g.succ}
    return {key: list(map(ids.__getitem__, targets)) for key, targets in distinct.items()}


def to_dot(g: Gnba) -> str:
    """Render the automaton as a DOT digraph.

    One node per state, labelled with the elementary set and the
    indices of the acceptance sets containing it; initial states are
    filled yellow; each edge carries the source state's literal
    pattern.
    """
    ids = list(map(str, range(len(g.states))))
    acc = _acceptance_texts(g, ",")
    tails = {pattern: f' [label="{format_letter(pattern)}"];' for pattern in set(g.patterns)}
    lines = [
        "digraph gnba {",
        "  rankdir=LR;",
        '  node [shape=circle, fontname="Helvetica"];',
    ]
    fill = ", style=filled, fillcolor=yellow"
    lines += [
        f'  {name} [label="{label}\\nacc: {sets}"{fill if sid in g.initial else ""}];'
        for sid, (name, label, sets) in enumerate(zip(ids, g.labels, acc))
    ]
    names = _target_names(g, ids)
    lines += [
        f"  {name} -> "
        + f"{tails[pattern]}\n  {name} -> ".join(names[id(targets)])
        + tails[pattern]
        for name, pattern, targets in zip(ids, g.patterns, g.succ)
        if targets
    ]
    # The final newline ends the last line: adding it to the joined text
    # would copy the whole document once more.
    lines.append("}\n")
    return "\n".join(lines)


def _edge_label(g: Gnba, pattern: Letter) -> str:
    """Conjunction over the closure's atoms; other atoms stay free."""
    conjuncts = []
    for j, atom in enumerate(g.alphabet):
        if atom not in g.closure.atoms:
            continue
        pos_prop, neg_prop = 2 * j, 2 * j + 1
        if (atom, True) in pattern:
            conjuncts.append(f"{pos_prop}")
            conjuncts.append(f"!{neg_prop}")
        elif (atom, False) in pattern:
            conjuncts.append(f"!{pos_prop}")
            conjuncts.append(f"{neg_prop}")
        else:
            conjuncts.append(f"!{pos_prop}")
            conjuncts.append(f"!{neg_prop}")
    if not conjuncts:
        return "t"
    return " & ".join(conjuncts)


#: The properties every emitted HOA document declares, and the only ones
#: `read_hoa` accepts.
_PROPERTIES = ("trans-labels", "explicit-labels", "state-acc")


def hoa_propositions(alphabet: tuple[str, ...]) -> list[str]:
    """The HOA proposition names of the atoms, "q" then "q__neg" for each.

    Raises ValueError when an atom's negative proposition would carry
    the name of another atom, so that no reader could tell them apart.
    """
    atoms = set(alphabet)
    for atom in alphabet:
        if f"{atom}__neg" in atoms:
            raise ValueError(
                f"atoms {atom!r} and '{atom}__neg' cannot share a HOA alphabet: "
                f"the negative proposition of {atom!r} is named '{atom}__neg'"
            )
    return [name for atom in alphabet for name in (atom, f"{atom}__neg")]


def to_hoa(g: Gnba) -> str:
    """Render the automaton in HOA v1 with state-based generalized
    Buchi acceptance."""
    k = g.all_marks.bit_length()
    lines = ["HOA: v1", f"States: {len(g.states)}"]
    for sid in sorted(g.initial):
        lines.append(f"Start: {sid}")
    ap_names = " ".join(f'"{name}"' for name in hoa_propositions(g.alphabet))
    lines.append(f"AP: {2 * len(g.alphabet)} {ap_names}")
    lines.append(f"acc-name: generalized-Buchi {k}")
    lines.append(f"Acceptance: {k} {'&'.join(f'Inf({i})' for i in range(k))}")
    lines.append("properties: " + " ".join(_PROPERTIES))
    lines.append("--BODY--")
    ids = list(map(str, range(len(g.states))))
    acc = _acceptance_texts(g, " ")
    heads = {pattern: f"[{_edge_label(g, pattern)}] " for pattern in set(g.patterns)}
    names = _target_names(g, ids)
    lines += [
        f'State: {name} "{label}" {{{sets}}}\n{heads[pattern]}'
        + f"\n{heads[pattern]}".join(names[id(targets)])
        if targets
        else f'State: {name} "{label}" {{{sets}}}'
        for name, label, sets, pattern, targets in zip(ids, g.labels, acc, g.patterns, g.succ)
    ]
    lines.append("--END--\n")
    return "\n".join(lines)


@dataclass(frozen=True)
class HoaAutomaton:
    """The parts of an emitted HOA document needed to compare automata."""

    num_states: int
    ap: tuple[str, ...]
    initial: frozenset[int]
    acceptance_count: int
    state_acceptance: tuple[frozenset[int], ...]
    state_names: tuple[str, ...]
    edges: tuple[tuple[int, Letter, int], ...]

    @property
    def atoms(self) -> tuple[str, ...]:
        """Atom names recovered from the paired proposition scheme."""
        return tuple(self.ap[i] for i in range(0, len(self.ap), 2))


def _parse_label(expr: str, ap: tuple[str, ...]) -> Letter:
    """Invert the edge-label encoding back into a letter pattern."""
    expr = expr.strip()
    if expr == "t":
        return frozenset()
    positive: set[int] = set()
    negative: set[int] = set()
    for token in expr.split("&"):
        token = token.strip()
        negate = token.startswith("!")
        if negate:
            token = token[1:].strip()
        if not token.isdigit():
            raise HoaFormatError(f"unsupported label term {token!r}")
        prop = int(token)
        if prop >= len(ap):
            raise HoaFormatError(f"label uses undeclared proposition {prop}")
        (negative if negate else positive).add(prop)
    if positive & negative:
        raise HoaFormatError(f"label asserts and negates proposition {min(positive & negative)}")
    literals = []
    for j in range(0, len(ap), 2):
        atom = ap[j]
        if j in positive and j + 1 in positive:
            raise HoaFormatError(f"label asserts both {atom} and {atom}__neg")
        if j in positive:
            literals.append((atom, True))
        elif j + 1 in positive:
            literals.append((atom, False))
    return frozenset(literals)


def _number(text: str, what: str, bound: Optional[int] = None) -> int:
    """`text` as a decimal number, below `bound` when one is given."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()) or bound is not None and int(text) >= bound:
        below = "" if bound is None else f" below {bound}"
        raise HoaFormatError(f"{what} {text!r} is not a number{below}")
    return int(text)


def _quoted(text: str) -> tuple[str, str]:
    """The double-quoted string `text` starts with, and the rest, stripped."""
    end = text.find('"', 1)
    if not text.startswith('"') or end < 0:
        raise HoaFormatError(f"expected a quoted name at {text!r}")
    return text[1:end], text[end + 1 :].strip()


def read_hoa(text: str) -> HoaAutomaton:
    """Parse the dialect produced by to_hoa.

    This is deliberately a subset reader: it understands exactly the
    headers and body statements the emitter writes, and raises
    HoaFormatError on anything else: out-of-range ids, repeated
    proposition names or header lines, labels that assert and negate one
    proposition, states without a State: line and lines after --END--
    included.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or lines[0] != "HOA: v1":
        raise HoaFormatError("missing HOA: v1 header")

    num_states = None
    starts: list[str] = []
    ap: tuple[str, ...] = ()
    acceptance_count = None
    named_count = None
    seen: set[str] = set()
    i = 1
    while i < len(lines) and lines[i] != "--BODY--":
        line = lines[i]
        i += 1
        # Every header but Start: is written once.
        key = line.partition(":")[0]
        if key in seen:
            raise HoaFormatError(f"header {key}: is repeated")
        if key != "Start":
            seen.add(key)
        if line.startswith("States:"):
            num_states = _number(line[len("States:") :], "state count")
        elif line.startswith("Start:"):
            starts.append(line[len("Start:") :])
        elif line.startswith("AP:"):
            count, _, rest = line[len("AP:") :].strip().partition(" ")
            names: dict[str, None] = {}
            while rest.strip():
                name, rest = _quoted(rest.strip())
                if name in names:
                    raise HoaFormatError(f"AP name {name!r} is declared twice")
                names[name] = None
            if len(names) != _number(count, "AP count"):
                raise HoaFormatError("AP count does not match the name list")
            ap = tuple(names)
        elif line.startswith("Acceptance:"):
            count, _, condition = line[len("Acceptance:") :].strip().partition(" ")
            acceptance_count = _number(count, "acceptance count")
            # Exactly Inf(0)&...&Inf(k-1), checked term by term so that a
            # huge declared count costs nothing before it is refused.
            condition = condition.strip()
            terms = condition.split("&") if condition else []
            if len(terms) != acceptance_count or any(
                term != f"Inf({k})" for k, term in enumerate(terms)
            ):
                raise HoaFormatError(f"unsupported acceptance condition {condition!r}")
        elif line.startswith("acc-name:"):
            name, _, count = line[len("acc-name:") :].strip().partition(" ")
            if name != "generalized-Buchi":
                raise HoaFormatError(f"unsupported acc-name {name!r}")
            named_count = _number(count, "acc-name set count")
        elif line.startswith("properties:"):
            for prop in line[len("properties:") :].split():
                if prop not in _PROPERTIES:
                    raise HoaFormatError(f"unsupported property {prop!r}")
        else:
            raise HoaFormatError(f"unsupported header line {line!r}")
    if num_states is None or acceptance_count is None:
        raise HoaFormatError("missing States: or Acceptance: header")
    if named_count is not None and named_count != acceptance_count:
        raise HoaFormatError(
            f"acc-name names {named_count} sets, Acceptance: has {acceptance_count}"
        )
    if i == len(lines):
        raise HoaFormatError("missing --BODY--")
    initial = frozenset({_number(start, "start state", num_states) for start in starts})
    # The header loop refuses "--END--", so the first one ends the body.
    end = lines.index("--END--") if "--END--" in lines else len(lines)
    if end < len(lines) - 1:
        raise HoaFormatError(f"unexpected line after --END--: {lines[end + 1]!r}")
    # Count the State: lines before allocating anything per state: a
    # huge declared count then costs nothing, and with no state declared
    # twice or out of range, enough lines means every state is declared.
    stated = sum(line.startswith("State:") for line in lines[i + 1 : end])
    if stated < num_states:
        raise HoaFormatError(f"body declares {stated} of {num_states} states")

    state_acc: list[frozenset[int]] = [frozenset()] * num_states
    state_names: list[str] = [""] * num_states
    edges: list[tuple[int, Letter, int]] = []
    # All edges of a state carry the same label: parse each text once.
    labels: dict[str, Letter] = {}
    # One byte per state: a set of ids would raise the reader's peak.
    declared = bytearray(num_states)
    current = None
    for line in lines[i + 1 : end]:
        if line.startswith("State:"):
            number, _, rest = line[len("State:") :].strip().partition(" ")
            current = _number(number, "state", num_states)
            if declared[current]:
                raise HoaFormatError(f"state {current} is declared twice")
            declared[current] = 1
            rest = rest.strip()
            state_names[current], rest = _quoted(rest) if rest.startswith('"') else ("", rest)
            if rest.startswith("{") and rest.endswith("}"):
                state_acc[current] = frozenset(
                    _number(tok, "acceptance set", acceptance_count) for tok in rest[1:-1].split()
                )
            elif rest:
                raise HoaFormatError(f"unsupported state suffix {rest!r}")
        elif line.startswith("["):
            if current is None:
                raise HoaFormatError("edge before any State:")
            label, closed, target = line[1:].partition("]")
            if not closed:
                raise HoaFormatError(f"unterminated edge label in {line!r}")
            pattern = labels.get(label)
            if pattern is None:
                pattern = labels[label] = _parse_label(label, ap)
            edges.append((current, pattern, _number(target, "edge target", num_states)))
        else:
            raise HoaFormatError(f"unsupported body line {line!r}")
    if end == len(lines):
        raise HoaFormatError("missing --END--")

    return HoaAutomaton(
        num_states=num_states,
        ap=ap,
        initial=initial,
        acceptance_count=acceptance_count,
        state_acceptance=tuple(state_acc),
        state_names=tuple(state_names),
        edges=tuple(edges),
    )

"""Serializers: DOT for viewing, HOA for machine consumption.

Both emitters are pure functions of the automaton and produce
byte-identical output across runs (LF newlines, fixed ordering).

Letters carry three values per atom, which HOA's boolean propositions
cannot express directly; each atom q therefore becomes two
propositions, "q" and "q__neg".  Exactly one of the three consistent
combinations appears on every emitted edge (q true, q__neg true, or
both false); both true never occurs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gnba import Gnba
from .letters import Letter, format_letter


class HoaFormatError(ValueError):
    """Input is not in the emitted HOA dialect."""


def _acceptance_indices(g: Gnba, sid: int) -> list[int]:
    return [i for i, members in enumerate(g.acceptance) if sid in members]


def to_dot(g: Gnba) -> str:
    """Render the automaton as a DOT digraph.

    One node per state, labelled with the elementary set and the
    indices of the acceptance sets containing it; initial states are
    filled yellow; each edge carries the source state's literal
    pattern.
    """
    lines = [
        "digraph gnba {",
        "  rankdir=LR;",
        '  node [shape=circle, fontname="Helvetica"];',
    ]
    for sid in range(len(g.states)):
        label = g.state_label(sid)
        acc = ",".join(str(i) for i in _acceptance_indices(g, sid))
        attrs = [f'label="{label}\\nacc: {acc}"']
        if sid in g.initial:
            attrs.append("style=filled")
            attrs.append("fillcolor=yellow")
        lines.append(f"  {sid} [{', '.join(attrs)}];")
    for sid in range(len(g.states)):
        letter_text = format_letter(g.patterns[sid])
        for target in g.succ[sid]:
            lines.append(f'  {sid} -> {target} [label="{letter_text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def to_hoa(g: Gnba) -> str:
    """Render the automaton in HOA v1 with state-based generalized
    Buchi acceptance."""
    k = len(g.acceptance)
    lines = ["HOA: v1", f"States: {len(g.states)}"]
    for sid in sorted(g.initial):
        lines.append(f"Start: {sid}")
    ap_names = []
    for atom in g.alphabet:
        ap_names.append(f'"{atom}"')
        ap_names.append(f'"{atom}__neg"')
    lines.append(f"AP: {2 * len(g.alphabet)} {' '.join(ap_names)}")
    lines.append(f"acc-name: generalized-Buchi {k}")
    lines.append(f"Acceptance: {k} {'&'.join(f'Inf({i})' for i in range(k))}")
    lines.append("properties: trans-labels explicit-labels state-acc")
    lines.append("--BODY--")
    for sid in range(len(g.states)):
        acc = " ".join(str(i) for i in _acceptance_indices(g, sid))
        lines.append(f'State: {sid} "{g.state_label(sid)}" {{{acc}}}')
        label = _edge_label(g, g.patterns[sid])
        for target in g.succ[sid]:
            lines.append(f"[{label}] {target}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


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


def read_hoa(text: str) -> HoaAutomaton:
    """Parse the dialect produced by to_hoa.

    This is deliberately a subset reader: it understands exactly the
    headers and body statements the emitter writes.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines or lines[0] != "HOA: v1":
        raise HoaFormatError("missing HOA: v1 header")

    num_states = None
    initial: set[int] = set()
    ap: tuple[str, ...] = ()
    acceptance_count = None
    i = 1
    while i < len(lines) and lines[i] != "--BODY--":
        line = lines[i]
        i += 1
        if line.startswith("States:"):
            num_states = int(line.split(":", 1)[1])
        elif line.startswith("Start:"):
            initial.add(int(line.split(":", 1)[1]))
        elif line.startswith("AP:"):
            parts = line.split(None, 2)
            count = int(parts[1])
            names = []
            rest = parts[2] if len(parts) > 2 else ""
            while rest:
                rest = rest.lstrip()
                if not rest.startswith('"'):
                    raise HoaFormatError(f"bad AP list near {rest!r}")
                end = rest.index('"', 1)
                names.append(rest[1:end])
                rest = rest[end + 1 :]
            if len(names) != count:
                raise HoaFormatError("AP count does not match the name list")
            ap = tuple(names)
        elif line.startswith("Acceptance:"):
            acceptance_count = int(line.split(":", 1)[1].split(None, 1)[0])
        elif line.startswith("acc-name:") or line.startswith("properties:"):
            continue
        else:
            raise HoaFormatError(f"unsupported header line {line!r}")
    if num_states is None or acceptance_count is None:
        raise HoaFormatError("missing States: or Acceptance: header")
    if i == len(lines):
        raise HoaFormatError("missing --BODY--")

    state_acc: list[frozenset[int]] = [frozenset()] * num_states
    state_names: list[str] = [""] * num_states
    edges: list[tuple[int, Letter, int]] = []
    # All edges of a state carry the same label: parse each text once.
    labels: dict[str, Letter] = {}
    current = None
    for line in lines[i + 1 :]:
        if line == "--END--":
            break
        if line.startswith("State:"):
            rest = line[len("State:") :].strip()
            parts = rest.split(None, 1)
            current = int(parts[0])
            if current >= num_states:
                raise HoaFormatError(f"state {current} out of range")
            rest = parts[1] if len(parts) > 1 else ""
            name = ""
            if rest.startswith('"'):
                end = rest.index('"', 1)
                name = rest[1:end]
                rest = rest[end + 1 :].strip()
            state_names[current] = name
            if rest.startswith("{") and rest.endswith("}"):
                body = rest[1:-1].strip()
                state_acc[current] = frozenset(
                    int(tok) for tok in body.split()
                ) if body else frozenset()
            elif rest:
                raise HoaFormatError(f"unsupported state suffix {rest!r}")
        elif line.startswith("["):
            if current is None:
                raise HoaFormatError("edge before any State:")
            end = line.index("]")
            text = line[1:end]
            pattern = labels.get(text)
            if pattern is None:
                pattern = labels[text] = _parse_label(text, ap)
            edges.append((current, pattern, int(line[end + 1 :].strip())))
        else:
            raise HoaFormatError(f"unsupported body line {line!r}")
    else:
        raise HoaFormatError("missing --END--")

    return HoaAutomaton(
        num_states=num_states,
        ap=ap,
        initial=frozenset(initial),
        acceptance_count=acceptance_count,
        state_acceptance=tuple(state_acc),
        state_names=tuple(state_names),
        edges=tuple(edges),
    )

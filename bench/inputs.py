"""Seeded input generators for the benchmark workloads.

Everything here is independent of the library: formulas are built as
small tuple trees, their closure sizes are counted with this module's
own copy of the documented desugaring rules, and models are written as
JSON documents.  The same seed always gives the same inputs, so a
change to the library can never change what the benchmark feeds it.
"""

from __future__ import annotations

import ast
import json
import random
import re
from pathlib import Path

# ---------------------------------------------------------------------------
# Formulas: surface trees, text, and closure size
# ---------------------------------------------------------------------------

_UNARY = ("!", "X", "F", "G")
_BINARY = ("&", "|", "->", "U", "R")


def formula_text(f) -> str:
    """Fully parenthesised surface text of a tuple tree."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "true":
        return "true"
    if tag in _UNARY:
        return f"{tag} {_wrapped(f[1])}"
    return f"{_wrapped(f[1])} {tag} {_wrapped(f[2])}"


def _wrapped(f) -> str:
    text = formula_text(f)
    return text if f[0] in ("atom", "true") else f"({text})"


def atoms_in(f) -> frozenset:
    if f[0] == "atom":
        return frozenset((f[1],))
    return frozenset().union(*(atoms_in(child) for child in f[1:]))


def _neg(f):
    return f[1] if f[0] == "!" else ("!", f)


def _core(f):
    """Desugar to {atom, true, !, &, X, U} without double negation:
    a | b = !(!a & !b), a -> b = !(a & !b), a R b = !(!a U !b),
    F a = true U a, G a = !(true U !a)."""
    tag = f[0]
    if tag in ("atom", "true"):
        return f
    if tag == "!":
        return _neg(_core(f[1]))
    if tag == "X":
        return ("X", _core(f[1]))
    if tag == "F":
        return ("U", ("true",), _core(f[1]))
    if tag == "G":
        return _neg(("U", ("true",), _neg(_core(f[1]))))
    left, right = _core(f[1]), _core(f[2])
    if tag == "&":
        return ("&", left, right)
    if tag == "U":
        return ("U", left, right)
    if tag == "|":
        return _neg(("&", _neg(left), _neg(right)))
    if tag == "->":
        return _neg(("&", left, _neg(right)))
    return _neg(("U", _neg(left), _neg(right)))  # R


def closure_bases(f) -> list:
    """Positive closure bases of the desugared formula."""
    seen = set()
    stack = [_core(f)]
    while stack:
        g = stack.pop()
        if g[0] == "!":
            g = g[1]
        if g in seen:
            continue
        seen.add(g)
        stack.extend(g[1:] if g[0] in ("&", "U", "X") else ())
    return list(seen)


# At most 3^7 = 2,187 elementary states per random translate formula.
MAX_FREE = 7


def _free_bases(bases) -> int:
    """Bases whose mark is not forced by their operands (atoms, X, U):
    3 to the power of this bounds the number of elementary states."""
    return sum(1 for b in bases if b[0] in ("atom", "X", "U"))


def _random_tree(rng: random.Random, atoms, size: int):
    if size <= 1:
        return ("atom", rng.choice(atoms))
    if size == 2 or rng.random() < 0.35:
        return (rng.choice(_UNARY), _random_tree(rng, atoms, size - 1))
    left = rng.randint(1, size - 2)
    return (
        rng.choice(_BINARY),
        _random_tree(rng, atoms, left),
        _random_tree(rng, atoms, size - 1 - left),
    )


def random_tree(rng: random.Random, atoms, target_bases: int):
    """A random formula tree over exactly `atoms` whose closure has
    `target_bases` bases, at most MAX_FREE of them unforced."""
    for _ in range(200_000):
        tree = _random_tree(rng, atoms, rng.randint(4, 14))
        if atoms_in(tree) != frozenset(atoms):
            continue
        bases = closure_bases(tree)
        if len(bases) == target_bases and _free_bases(bases) <= MAX_FREE:
            return tree
    raise RuntimeError(f"no formula with {target_bases} bases over {atoms}")


def _renamed(f, names: dict, flipped: frozenset):
    """Rename atoms and negate the flipped ones at every occurrence: an
    isomorphism of the automaton, so the cost of the input is kept."""
    if f[0] == "atom":
        atom = ("atom", names[f[1]])
        return ("!", atom) if f[1] in flipped else atom
    return (f[0],) + tuple(_renamed(child, names, flipped) for child in f[1:])


# The criterion-6 chain X^k a, k = 1..8: 3^(k+1) states each.
CHAIN_DEPTHS = tuple(range(1, 9))
# Random translate formulas: this many per closure size.
TRANSLATE_BASES = tuple(range(6, 13))
TRANSLATE_PER_SIZE = 6


def _translate_shapes() -> list:
    """Random formula trees over 3-4 atoms, stratified by closure size.
    They come from a fixed stream: automaton size varies by orders of
    magnitude between random formulas of one closure size, so drawing
    new shapes per seed would change the cost mix with the seed."""
    rng = random.Random("translate-shapes")
    shapes = []
    for bases in TRANSLATE_BASES:
        for _ in range(TRANSLATE_PER_SIZE):
            # Four atoms and a single operator already make 5 bases.
            width = 3 if bases < 8 else rng.choice((3, 4))
            shapes.append(random_tree(rng, ("a", "b", "c", "d")[:width], bases))
    return shapes


def translate_inputs(seed: int) -> list[dict]:
    """The X^k a chain followed by the random formulas, each with its
    atoms permuted and negated and its truth value drawn from the seed."""
    rng = random.Random(f"translate-{seed}")
    items = [
        {"formula": "X " * k + "a", "alphabet": ("a",), "value": "uu", "chain": k}
        for k in CHAIN_DEPTHS
    ]
    for shape in _translate_shapes():
        atoms = sorted(atoms_in(shape))
        names = dict(zip(atoms, rng.sample(atoms, len(atoms))))
        flipped = frozenset(a for a in atoms if rng.random() < 0.5)
        items.append(
            {
                "formula": formula_text(_renamed(shape, names, flipped)),
                "alphabet": tuple(atoms),
                "value": rng.choice(("top", "bot", "uu")),
                "chain": None,
            }
        )
    return items


# ---------------------------------------------------------------------------
# Models and (model, formula) pairs with generator-known verdicts
# ---------------------------------------------------------------------------

# Each template mentions a decisive atom {d} such that the formula is
# TRUE on every path when {d} is true at every state, and FALSE on
# every path when {d} is false at every state, whatever the other
# atoms do (substitute true or false for {d} and simplify).  When {d}
# is unknown at every state, three-valued semantics is monotone in
# information, so every path evaluates to UNDEF.  That makes all three
# verdicts known to the generator.  {x}, {y}, {z} are literals over the
# other atoms.
CHECK_TEMPLATES = (
    "({x} U {y}) R ({z} U {d})",
    "G ({x} -> X ({y} U {d})) & F {d}",
    "G F {d} & ({x} U ({d} | {y}))",
    "({d} | X {x}) U ({d} & X {d})",
    "F G {d} | ({x} U G {d})",
    "G ({d} | {x}) & F {d}",
    "({x} U {d}) | G {d}",
    "G F {d}",
)

VERDICT_LABEL = {"TRUE": "t", "FALSE": "f", "UNDEF": "u"}

# (template index, model states, unknown share) per slot; every slot
# runs once per verdict.  Product search costs about model states x
# automaton states, so large models get the small automata.  Model
# sizes span 50-2,000 states; the largest dominate the tail (p90).
# Shapes and sizes are fixed so that every seed has the same cost mix;
# the seed draws the model edges and labels and the atom roles.
CHECK_SLOTS = (
    (0, 60, 0.0),
    (1, 50, 0.1),
    (2, 80, 0.2),
    (3, 70, 0.3),
    (3, 40, 0.0),
    (4, 100, 0.1),
    (5, 50, 0.2),
    (5, 300, 0.3),
    (6, 60, 0.0),
    (6, 400, 0.1),
    (7, 100, 0.2),
    (7, 800, 0.3),
    (7, 1000, 0.2),
    (7, 1300, 0.1),
    (7, 1600, 0.0),
    (7, 2000, 0.1),
)


def random_model(
    rng: random.Random,
    states: int,
    atoms,
    fixed: dict,
    unknown_share: float,
) -> str:
    """JSON model: a ring s0 -> s1 -> ... -> s0 plus up to two random
    extra successors per state (out-degree 1-3).  Atoms in
    `fixed` carry the given label code at every state; the others are
    "u" with probability `unknown_share`, else "t" or "f"."""
    names = [f"s{i}" for i in range(states)]
    edges = []
    for i in range(states):
        targets = [(i + 1) % states]
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(states)
            if j not in targets:
                targets.append(j)
        edges.extend([names[i], names[j]] for j in targets)
    labels = {}
    for name in names:
        labels[name] = {
            atom: fixed[atom]
            if atom in fixed
            else ("u" if rng.random() < unknown_share else rng.choice("tf"))
            for atom in atoms
        }
    return json.dumps(
        {"states": names, "initial": names[0], "edges": edges, "labels": labels}
    )


def _literal(rng: random.Random, atom: str) -> str:
    return atom if rng.random() < 0.5 else f"!{atom}"


def check_formula(rng: random.Random, template: str, decisive: str, others) -> str:
    x, y, z = others
    return template.format(
        d=decisive, x=_literal(rng, x), y=_literal(rng, y), z=_literal(rng, z)
    )


def check_inputs(seed: int) -> list[dict]:
    """(model document, formula, expected verdict) per slot and verdict.

    The seed picks the decisive atom, literal polarities, model edges
    and the other atoms' labels."""
    rng = random.Random(f"check-{seed}")
    atoms = ("a", "b", "c", "d")
    items = []
    for template_index, states, unknown_share in CHECK_SLOTS:
        for verdict in ("TRUE", "FALSE", "UNDEF"):
            shuffled = list(atoms)
            rng.shuffle(shuffled)
            decisive, others = shuffled[0], shuffled[1:]
            template = CHECK_TEMPLATES[template_index]
            items.append(
                {
                    "model": random_model(
                        rng,
                        states,
                        atoms,
                        {decisive: VERDICT_LABEL[verdict]},
                        unknown_share,
                    ),
                    "formula": check_formula(rng, template, decisive, others),
                    "states": states,
                    "expected": verdict,
                }
            )
    return items


# ---------------------------------------------------------------------------
# Lassos over the acceptance corpus
# ---------------------------------------------------------------------------


def acceptance_corpus(root: Path) -> tuple[str, ...]:
    """The CORPUS tuple of tests/helpers.py, read without importing it."""
    tree = ast.parse((root / "tests" / "helpers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CORPUS" for t in node.targets
        ):
            return tuple(ast.literal_eval(node.value))
    raise RuntimeError("tests/helpers.py defines no CORPUS")


def letters_over(atoms) -> list:
    """All consistent letters over `atoms`: each atom true, false or unset."""
    letters = [frozenset()]
    for atom in atoms:
        letters = [
            letter | extra
            for letter in letters
            for extra in (frozenset(), {(atom, True)}, {(atom, False)})
        ]
    return letters


def sample_lassos(rng: random.Random, atoms, count: int) -> list[tuple[tuple, tuple]]:
    """`count` distinct (stem, loop) pairs drawn uniformly from all
    lassos with |stem| <= 2 and 1 <= |loop| <= 2, or all of them when
    there are fewer."""
    letters = letters_over(atoms)
    shapes = [(s, l) for s in range(3) for l in range(1, 3)]
    weights = [len(letters) ** (s + l) for s, l in shapes]
    count = min(count, sum(weights))
    chosen: dict = {}
    while len(chosen) < count:
        s, l = rng.choices(shapes, weights)[0]
        stem = tuple(rng.choice(letters) for _ in range(s))
        loop = tuple(rng.choice(letters) for _ in range(l))
        chosen.setdefault((stem, loop), None)
    return list(chosen)


LASSOS_PER_FORMULA = 24
# Atom names as the formula lexer reads them; upper-case operators
# never match.
_ATOM_NAME = re.compile(r"[a-z][A-Za-z0-9_]*")


def crosscheck_inputs(seed: int, corpus) -> list[dict]:
    """One (formula, lasso) pair per op, LASSOS_PER_FORMULA per formula."""
    rng = random.Random(f"crosscheck-{seed}")
    items = []
    for index, text in enumerate(corpus):
        atoms = sorted(set(_ATOM_NAME.findall(text)) - {"true", "false"})
        for stem, loop in sample_lassos(rng, atoms, LASSOS_PER_FORMULA):
            items.append({"formula": index, "stem": stem, "loop": loop})
    return items

import random

import pytest

from triltl import (
    DEFAULT_CANDIDATE_CAP,
    ModelFormatError,
    Nba,
    Truth,
    Verdict,
    atoms_of,
    build_automaton,
    build_family,
    check_model,
    closure_of,
    degeneralize,
    enumerate_lassos,
    eval_lasso,
    lasso,
    letter_of,
    nba_accepts_lasso,
    parse_core,
    parse_model,
    product_nonempty,
)
from triltl import gnba, modelcheck
from triltl.modelcheck import induced_word
from helpers import (
    CORPUS,
    gnba_accepts_lasso,
    model_doc,
    reference_product_nonempty,
)


def self_loop(labels):
    return parse_model(
        model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": labels})
    )


TWO_STATE = parse_model(
    model_doc(
        ["s0", "s1"],
        "s0",
        [["s0", "s1"], ["s1", "s1"]],
        {"s0": {"a": "t"}, "s1": {"a": "f"}},
    )
)


class TestParseModel:
    def test_minimal_model(self):
        m = self_loop({"a": "t"})
        assert m.states == ("s0",)
        assert m.label("s0", "a") is Truth.TRUE

    def test_duplicate_state(self):
        with pytest.raises(ModelFormatError, match="duplicate state"):
            parse_model(model_doc(["s0", "s0"], "s0", [["s0", "s0"]], {}))

    def test_unknown_initial(self):
        with pytest.raises(ModelFormatError, match="unknown initial"):
            parse_model(model_doc(["s0"], "s9", [["s0", "s0"]], {}))

    def test_unknown_edge_endpoint_named(self):
        with pytest.raises(ModelFormatError, match="'s9'"):
            parse_model(model_doc(["s0"], "s0", [["s0", "s9"]], {}))

    def test_seriality_violation_names_the_state(self):
        with pytest.raises(ModelFormatError, match="'s0'"):
            parse_model(model_doc(["s0"], "s0", [], {}))

    def test_malformed_label_value(self):
        with pytest.raises(ModelFormatError, match="bad value"):
            parse_model(
                model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"a": "yes"}})
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(ModelFormatError, match="unknown field"):
            parse_model('{"states": ["s0"], "initial": "s0", "edges": [["s0","s0"]], "extra": 1}')

    def test_labels_for_unknown_state(self):
        with pytest.raises(ModelFormatError, match="unknown state"):
            parse_model(model_doc(["s0"], "s0", [["s0", "s0"]], {"s9": {"a": "t"}}))

    def test_invalid_json(self):
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            parse_model("{not json")

    def test_missing_field(self):
        with pytest.raises(ModelFormatError, match="missing field"):
            parse_model('{"states": ["s0"], "initial": "s0"}')

    def test_labels_default_to_unknown(self):
        m = parse_model(model_doc(["s0"], "s0", [["s0", "s0"]], {}))
        assert m.label("s0", "a") is Truth.UNKNOWN

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"states": ["s0"], "initial": ["s0"], "edges": [["s0", "s0"]]}',
             "unknown initial"),
            ('{"states": ["s0"], "initial": "s0", "edges": [[["s0"], "s0"]]}',
             "in edge"),
            (model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"a": ["t"]}}),
             "bad value"),
            (model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": ["a"]}),
             "labels of 's0' must be an object"),
            (model_doc(["s0"], "s0", [["s0", "s0"]], []),
             '"labels" must be an object'),
        ],
        ids=[
            "list-initial",
            "list-edge-endpoint",
            "list-label-value",
            "list-state-labels",
            "list-labels",
        ],
    )
    def test_wrong_json_shape(self, document, message):
        with pytest.raises(ModelFormatError, match=message):
            parse_model(document)

    def test_duplicate_edges_keep_first_declaration_order(self):
        m = parse_model(
            model_doc(
                ["s0", "s1"],
                "s0",
                [["s0", "s1"], ["s1", "s0"], ["s0", "s1"], ["s0", "s0"]],
                {},
            )
        )
        assert m.edges == (("s0", "s1"), ("s1", "s0"), ("s0", "s0"))


class TestLetterOf:
    def test_true_and_unknown(self):
        m = self_loop({"a": "t", "b": "u"})
        assert letter_of(m, "s0", ["a", "b"]) == frozenset({("a", True)})

    def test_false(self):
        m = self_loop({"a": "f"})
        assert letter_of(m, "s0", ["a"]) == frozenset({("a", False)})

    def test_all_unknown(self):
        m = self_loop({})
        assert letter_of(m, "s0", ["a", "b"]) == frozenset()


class TestProductNonEmpty:
    def test_false_automaton_finds_nothing_on_true_model(self):
        m = self_loop({"a": "t"})
        nba = degeneralize(build_automaton(parse_core("X a"), ["a"], Truth.FALSE))
        assert product_nonempty(m, nba) is None

    def test_unknown_automaton_accepts_unknown_self_loop(self):
        m = self_loop({"a": "u"})
        nba = degeneralize(build_automaton(parse_core("X a"), ["a"], Truth.UNKNOWN))
        witness = product_nonempty(m, nba)
        assert witness is not None
        stem, loop = witness
        assert set(stem) | set(loop) == {"s0"}

    def test_empty_initial_automaton(self):
        m = self_loop({"a": "t"})
        nba = degeneralize(build_automaton(parse_core("true"), [], Truth.FALSE))
        assert product_nonempty(m, nba) is None


def _random_model(seed, size):
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(size)]
    edges = [[s, rng.choice(states)] for s in states]
    edges += [[rng.choice(states), rng.choice(states)] for _ in range(size)]
    labels = {
        s: {atom: rng.choice("tfu") for atom in "ab" if rng.random() < 0.8}
        for s in states
    }
    return parse_model(model_doc(states, "s0", edges, labels))


SMALL_MODELS = [
    self_loop({"a": "t"}),
    self_loop({"a": "u"}),
    self_loop({"a": "f", "b": "t"}),
    TWO_STATE,
    parse_model(
        model_doc(
            ["s0", "sf", "su"],
            "s0",
            [["s0", "sf"], ["s0", "su"], ["sf", "sf"], ["su", "su"]],
            {"s0": {"a": "t"}, "sf": {"a": "f"}, "su": {"a": "u"}},
        )
    ),
    parse_model(
        model_doc(
            ["s0", "s1", "s2"],
            "s0",
            [["s0", "s1"], ["s1", "s2"], ["s2", "s0"], ["s1", "s1"]],
            {"s0": {"a": "t", "b": "u"}, "s1": {"a": "t", "b": "t"}, "s2": {"a": "f"}},
        )
    ),
    *(_random_model(seed, size) for seed, size in ((1, 5), (2, 7), (3, 9))),
]


class TestWitnessParity:
    """The on-the-fly search returns exactly the witness of the explicit
    breadth-first + Tarjan search, whether it is given the generalized
    automaton or its degeneralization."""

    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_formula_on_small_models(self, text):
        psi = parse_core(text)
        family = build_family(psi, ("a", "b"))
        for model in SMALL_MODELS:
            for value in (Truth.FALSE, Truth.UNKNOWN):
                g = family[value]
                nba = degeneralize(g)
                expected = reference_product_nonempty(model, nba)
                assert product_nonempty(model, nba) == expected
                assert product_nonempty(model, g) == expected

    def test_models_cover_both_outcomes(self):
        found = {
            product_nonempty(model, build_family(parse_core(text), ("a", "b"))[value])
            is None
            for text in CORPUS
            for model in SMALL_MODELS
            for value in (Truth.FALSE, Truth.UNKNOWN)
        }
        assert found == {True, False}


class TestCheckModel:
    def test_globally_true(self):
        verdict = check_model(self_loop({"a": "t"}), parse_core("G a"))
        assert verdict.value is Truth.TRUE
        assert verdict.witness is None

    def test_globally_unknown_with_witness(self):
        verdict = check_model(self_loop({"a": "u"}), parse_core("G a"))
        assert verdict.value is Truth.UNKNOWN
        stem, loop = verdict.witness
        assert set(stem) | set(loop) == {"s0"}

    def test_globally_false_with_witness(self):
        verdict = check_model(TWO_STATE, parse_core("G a"))
        assert verdict.value is Truth.FALSE
        stem, loop = verdict.witness
        assert set(loop) == {"s1"}

    def test_false_dominates_unknown(self):
        # One branch falsifies, another leaves the formula unknown.
        m = parse_model(
            model_doc(
                ["s0", "sf", "su"],
                "s0",
                [["s0", "sf"], ["s0", "su"], ["sf", "sf"], ["su", "su"]],
                {"s0": {"a": "t"}, "sf": {"a": "f"}, "su": {"a": "u"}},
            )
        )
        verdict = check_model(m, parse_core("G a"))
        assert verdict.value is Truth.FALSE

    def test_witness_reevaluates_to_verdict(self):
        for labels, psi_text in (
            ({"a": "u"}, "G a"),
            ({"a": "f"}, "G a"),
            ({"a": "t"}, "X !a"),
        ):
            m = self_loop(labels)
            psi = parse_core(psi_text)
            verdict = check_model(m, psi)
            if verdict.witness is not None:
                word = induced_word(m, verdict.witness, ("a",))
                assert eval_lasso(psi, word) is verdict.value

    def test_witness_is_deterministic(self):
        first = check_model(TWO_STATE, parse_core("G a"))
        second = check_model(TWO_STATE, parse_core("G a"))
        assert first == second


class TestLazyCheck:
    """check_model builds its automata lazily, yet gives the verdict and
    witness of product_nonempty on the eagerly built automata."""

    @pytest.mark.parametrize("text", CORPUS)
    def test_same_verdict_and_witness_as_the_eager_automata(self, text):
        psi = parse_core(text)
        for model in SMALL_MODELS:
            alphabet = tuple(sorted(atoms_of(psi) | model.label_atoms()))
            family = build_family(psi, alphabet)
            expected = Verdict(Truth.TRUE)
            for value in (Truth.FALSE, Truth.UNKNOWN):
                witness = product_nonempty(model, family[value])
                if witness is not None:
                    expected = Verdict(value, witness)
                    break
            assert check_model(model, psi) == expected

    def test_no_full_construction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("full automaton built")

        families = []

        class Recorded(gnba.LazyFamily):
            def __init__(self, *args):
                super().__init__(*args)
                families.append(self)

        psi = parse_core("G a")
        full = len(build_family(psi, ("a",))[Truth.TRUE].states)
        monkeypatch.setattr(modelcheck, "LazyFamily", Recorded)
        monkeypatch.setattr(gnba, "build_family", refuse)
        monkeypatch.setattr(gnba, "acceptance_sets", refuse)
        assert check_model(TWO_STATE, psi) == Verdict(
            Truth.FALSE, (("s0",), ("s1", "s1"))
        )
        # The model emits a and !a but never leaves a unknown, so the
        # states whose pattern leaves a absent are never built.
        (family,) = families
        assert 0 < len(family.marks) < full
        assert check_model(self_loop({"a": "t"}), psi) == Verdict(Truth.TRUE)

    def test_duplicate_alphabet_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            check_model(TWO_STATE, parse_core("G a"), ["a", "a"])


POS_A = frozenset({("a", True)})
NEG_A = frozenset({("a", False)})


def _only_a_holds():
    """A one-state Nba whose one pattern is {a}: every letter that gives
    a another value matches no state."""
    return Nba(
        closure=closure_of(parse_core("a")),
        alphabet=("a",),
        counters=1,
        states=((0, 1),),
        initial=frozenset({0}),
        patterns=(POS_A,),
        succ=((0,),),
        accepting=frozenset({0}),
    )


class TestPatternIndex:
    """`nba_accepts_lasso` and `product_nonempty` read an eager automaton
    through one `PatternIndex`, built on first use and kept on it."""

    def test_built_once_per_automaton(self, monkeypatch):
        built = []
        init = gnba.PatternIndex.__init__

        def counted(self, automaton):
            built.append(automaton)
            init(self, automaton)

        monkeypatch.setattr(gnba.PatternIndex, "__init__", counted)
        g = build_automaton(parse_core("a U b"), ("a", "b"), Truth.FALSE)
        assert "pattern_index" not in g.__dict__
        nba_accepts_lasso(g, lasso([], [NEG_A], ("a", "b")))
        index = g.__dict__["pattern_index"]
        nba_accepts_lasso(g, lasso([POS_A], [frozenset()], ("a", "b")))
        product_nonempty(TWO_STATE, g)
        assert g.__dict__["pattern_index"] is index
        assert built == [g]

    @pytest.mark.parametrize("text", ["a U b", "X a", "(a U b) & (b U a)"])
    def test_numbers_patterns_and_groups_initial_states(self, text):
        for value in Truth:
            g = build_automaton(parse_core(text), ("a", "b"), value)
            for automaton in (g, degeneralize(g)):
                index = automaton.pattern_index
                assert list(index.ids) == list(dict.fromkeys(automaton.patterns))
                assert list(index.ids.values()) == list(range(len(index.ids)))
                assert index.nletters == len(index.ids) + 1
                for pattern, l in index.ids.items():
                    assert index.roots(l) == sorted(
                        q for q in automaton.initial if automaton.patterns[q] == pattern
                    )
                    for q, succ in enumerate(automaton.succ):
                        assert index.targets(q, l) == [
                            t for t in succ if automaton.patterns[t] == pattern
                        ]
                missing = index.nletters - 1
                assert index.roots(missing) == []
                assert all(index.targets(q, missing) == [] for q in range(len(automaton.succ)))

    def test_letters_outside_the_closure_are_restricted(self):
        # c is in the alphabet but not in the closure of a U b.
        abc = ("a", "b", "c")
        g = build_automaton(parse_core("a U b"), abc, Truth.TRUE)
        c, not_c = ("c", True), ("c", False)
        word = lasso([POS_A | {c}], [frozenset({("b", True), not_c})], abc)
        assert nba_accepts_lasso(g, word)
        assert nba_accepts_lasso(degeneralize(g), word)
        assert not nba_accepts_lasso(g, lasso([NEG_A | {c}], [frozenset({not_c})], abc))
        labels = {"s0": {"a": "t", "c": "f"}, "s1": {"b": "u", "c": "t"}}
        model = parse_model(model_doc(["s0", "s1"], "s0", [["s0", "s1"], ["s1", "s1"]], labels))
        unknown = build_automaton(parse_core("a U b"), abc, Truth.UNKNOWN)
        witness = product_nonempty(model, unknown)
        assert witness is not None
        assert witness == reference_product_nonempty(model, degeneralize(unknown))

    def test_letter_matching_no_pattern_is_rejected(self):
        n = _only_a_holds()
        index = n.pattern_index
        assert index.letter_id(NEG_A) == index.letter_id(frozenset()) == len(index.ids)
        assert nba_accepts_lasso(n, lasso([], [POS_A], ("a",)))
        for stem, loop in (([], [NEG_A]), ([], [POS_A, frozenset()]), ([NEG_A], [POS_A])):
            assert not nba_accepts_lasso(n, lasso(stem, loop, ("a",)))
        assert product_nonempty(self_loop({"a": "t"}), n) == ((), ("s0",))
        assert product_nonempty(TWO_STATE, n) is None

    @pytest.mark.parametrize("text", CORPUS)
    def test_gnba_and_its_degeneralization_agree(self, text):
        psi = parse_core(text)
        family = build_family(psi, ("a", "b"))
        pairs = [(value, g, degeneralize(g)) for value, g in family.items()]
        for word in enumerate_lassos(("a", "b"), 1, 1):
            truth = eval_lasso(psi, word)
            for value, g, n in pairs:
                assert nba_accepts_lasso(g, word) is nba_accepts_lasso(n, word) is (truth is value)

    def test_oracles_do_not_build_the_index(self):
        g = build_automaton(parse_core("a U b"), ("a", "b"), Truth.FALSE)
        n = degeneralize(g)
        gnba_accepts_lasso(g, lasso([], [NEG_A], ("a", "b")))
        reference_product_nonempty(TWO_STATE, n)
        assert "pattern_index" not in g.__dict__
        assert "pattern_index" not in n.__dict__


def _read(family, letters):
    """Every state the family reaches from the roots of all three
    automata through `letters`, with each state's successors through
    those letters."""
    todo = [q for value in Truth for l in letters for q in family.roots(value, l)]
    seen = set(todo)
    while todo:
        q = todo.pop()
        for l in letters:
            fresh = [t for t in family.targets(q, l) if t not in seen]
            seen.update(fresh)
            todo += fresh


def _vectors(family):
    """The vector of each state the family has built, by state id."""
    return [family._tables.vecs[leaf] for leaf in family._leaves]


def _by_vector(family, full):
    """Per state vector: its successor vectors through letter `full`, in
    order, and its acceptance marks."""
    vec_of = _vectors(family)
    return {
        vec_of[q]: ([vec_of[t] for t in family.targets(q, full)], family.marks[q])
        for q in range(len(family.marks))
    }


class TestTrieOrder:
    """A lazy family whose trie was first walked through a model's
    letters, so that its leaves were reached out of lexicographic order,
    and then read in full, lists every state's successors and marks as a
    fresh full read does."""

    def test_pinned_then_full_read_equals_a_fresh_full_read(self):
        out_of_order = 0
        for text in CORPUS:
            psi = parse_core(text)
            for model in SMALL_MODELS:
                alphabet = tuple(sorted(atoms_of(psi) | model.label_atoms()))
                closure = gnba.checked_closure(psi, alphabet, DEFAULT_CANDIDATE_CAP)
                letters = list(
                    dict.fromkeys(letter_of(model, s, closure.atoms) for s in model.states)
                )
                pinned = gnba.LazyFamily(closure, letters + [None])
                _read(pinned, range(len(letters)))
                _read(pinned, [len(letters)])
                fresh = gnba.LazyFamily(closure, [None])
                _read(fresh, [0])
                assert _by_vector(pinned, len(letters)) == _by_vector(fresh, 0)
                vecs = _vectors(pinned)
                # Each state is built once, however the walks reached it.
                assert len(set(vecs)) == len(vecs) == len(_vectors(fresh))
                out_of_order += vecs != sorted(vecs)
        assert out_of_order


def _model_lassos(model, max_stem, max_loop):
    """All real (stem, loop) paths of the model from its initial state."""
    succ = {s: model.successors(s) for s in model.states}

    def paths(start, length):
        if length == 0:
            yield (start,)
            return
        for prefix in paths(start, length - 1):
            for nxt in succ[prefix[-1]]:
                yield prefix + (nxt,)

    for total_len in range(1, max_stem + max_loop + 1):
        for path in paths(model.initial, total_len - 1):
            for loop_len in range(1, min(max_loop, len(path)) + 1):
                stem, loop = path[:-loop_len], path[-loop_len:]
                if len(stem) > max_stem:
                    continue
                if loop[-1] not in succ or loop[0] not in succ[loop[-1]]:
                    continue
                yield stem, loop


class TestSmallModelCrossCheck:
    """Bounded falsification: any disagreement between the verdict and
    direct evaluation of explicit model lassos is a bug."""

    MODELS = [
        self_loop({"a": "t"}),
        self_loop({"a": "u"}),
        TWO_STATE,
        parse_model(
            model_doc(
                ["s0", "s1", "s2"],
                "s0",
                [["s0", "s1"], ["s1", "s2"], ["s2", "s0"], ["s1", "s1"]],
                {"s0": {"a": "t", "b": "u"}, "s1": {"a": "t", "b": "t"}, "s2": {"a": "f"}},
            )
        ),
    ]
    FORMULAS = ["G a", "F b", "a U b", "X a", "G (a -> F b)", "!a"]

    @pytest.mark.parametrize("psi_text", FORMULAS)
    def test_bounded_agreement(self, psi_text):
        psi = parse_core(psi_text)
        for model in self.MODELS:
            alphabet = tuple(sorted({"a", "b"} | model.label_atoms()))
            verdict = check_model(model, psi, alphabet)
            observed = set()
            for stem, loop in _model_lassos(model, 4, 4):
                word = induced_word(model, (stem, loop), alphabet)
                observed.add(eval_lasso(psi, word))
            if Truth.FALSE in observed:
                assert verdict.value is Truth.FALSE
            if Truth.UNKNOWN in observed:
                assert verdict.value is not Truth.TRUE
            if verdict.value is Truth.TRUE:
                assert observed <= {Truth.TRUE}

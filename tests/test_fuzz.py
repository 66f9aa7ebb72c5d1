"""Fuzz the three text parsers: whatever the input, only ValueError
subclasses (which the CLI turns into exit 2) may escape."""

import json

from hypothesis import given, settings, strategies as st

from triltl import parse_core, parse_lasso, parse_model

FUZZ = settings(max_examples=200, deadline=None)

# Mostly the formula grammar's own characters, so inputs get past the
# first token; arbitrary text covers the rest.
formula_text = st.one_of(
    st.text(alphabet="ab()!&|-><=UXFGRWtruefals \t", max_size=60),
    st.text(max_size=30),
)

#: Wrappers that each add one or two levels to a formula text.
LEVELS = ["X {}", "!{}", "F ({})", "({})", "a U {}", "{} & b", "{} | a", "a -> {}", "{} R b", "G {}"]


@st.composite
def deep_formula_text(draw):
    """Texts 90 to 250 levels deep, around the nesting limit, sometimes
    with one character dropped or inserted."""
    text = "a"
    for wrapper in draw(st.lists(st.sampled_from(LEVELS), min_size=90, max_size=250)):
        text = wrapper.format(text)
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["", "drop", *"()!&|UX@"]))
    if edit == "drop":
        return text[:at] + text[at + 1 :]
    return text[:at] + edit + text[at:]


letter_text = st.one_of(
    st.text(alphabet="ab,;! \t9_", max_size=30),
    st.text(max_size=15),
)

json_value = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.sampled_from(["s0", "s1", "a", "t", "f", "u", "", "s 0", "a;b"]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.sampled_from(["s0", "s1", "a", "b", "9"]), children, max_size=3
        ),
    ),
    max_leaves=12,
)


def _corrupt(draw, value):
    """The value with about one node in twelve replaced by arbitrary JSON."""
    if draw(st.integers(0, 11)) == 0:
        return draw(json_value)
    if isinstance(value, list):
        return [_corrupt(draw, item) for item in value]
    if isinstance(value, dict):
        return {key: _corrupt(draw, item) for key, item in value.items()}
    return value


@st.composite
def model_documents(draw):
    """Well-formed models with a few fields dropped, added or corrupted,
    so most documents get past the early checks to the later ones."""
    names = st.sampled_from(["s0", "s1", "s2"])
    states = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    pick = st.sampled_from(states)
    doc = {
        "states": states,
        "initial": draw(pick),
        "edges": [[state, draw(pick)] for state in states]
        + [[draw(pick), draw(pick)] for _ in range(draw(st.integers(0, 3)))],
        "labels": {
            state: draw(
                st.dictionaries(
                    st.sampled_from(["a", "b", "9", "X"]),
                    st.sampled_from(["t", "f", "u"]),
                    max_size=2,
                )
            )
            for state in draw(st.lists(st.sampled_from([*states, "s3"]), max_size=3))
        },
    }
    for field in list(doc):
        if draw(st.integers(0, 19)) == 0:
            del doc[field]
    if draw(st.integers(0, 19)) == 0:
        doc["extra"] = draw(json_value)
    return _corrupt(draw, doc)


@FUZZ
@given(formula_text)
def test_parse_core_raises_only_value_errors(text):
    try:
        parse_core(text)
    except ValueError:
        pass


@FUZZ
@given(deep_formula_text())
def test_parse_core_of_deep_texts_raises_only_value_errors(text):
    try:
        parse_core(text)
    except ValueError:
        pass


@FUZZ
@given(
    letter_text,
    letter_text,
    st.one_of(st.none(), st.lists(st.sampled_from(["a", "b", "c"]), max_size=3)),
)
def test_parse_lasso_raises_only_value_errors(stem, loop, alphabet):
    try:
        parse_lasso(stem, loop, alphabet)
    except ValueError:
        pass


@FUZZ
@given(model_documents())
def test_parse_model_raises_only_value_errors(document):
    try:
        parse_model(json.dumps(document))
    except ValueError:
        pass

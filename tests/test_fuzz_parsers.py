"""Fuzzing the text loaders: a mutated model or map file either loads or
raises FormatError, never any other exception."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesctl import (
    FormatError,
    dumps_automaton,
    dumps_scaling_map,
    dumps_supervisor_map,
    loads_automaton,
    loads_scaling_map,
    loads_supervisor_map,
    scaling_from_spec,
    supervisor_from_scaling,
)
from conftest import robot_plant, robot_spec

_SCALING = scaling_from_spec(robot_plant(), robot_spec())
VALID = {
    "automaton": (loads_automaton, dumps_automaton(robot_spec())),
    "scaling": (loads_scaling_map, dumps_scaling_map(_SCALING)),
    "supervisor": (loads_supervisor_map, dumps_supervisor_map(supervisor_from_scaling(_SCALING))),
}

# every token of the valid texts, plus malformed and boundary values
TOKENS = sorted({tok for _, text in VALID.values() for tok in text.split()}) + [
    "x", "-", "#", ":", "states:", "trans:", "pattern", "class", "default", "t", "t-1", "t99",
    "-1", "0", "2", "1/0", "-1/2", "3/2", "0.5", "1.", "0+", "0+^2", "0+^2*1/3", "00", "111",
]

EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "duplicate"]),
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.sampled_from(TOKENS),
)


def mutate(text, edits):
    """Apply token edits to the lines of a text; indices wrap around."""
    lines = [line.split() for line in text.splitlines()]
    for kind, at, pos, token in edits:
        line = lines[at % len(lines)]
        if kind == "replace" and line:
            line[pos % len(line)] = token
        elif kind == "insert":
            line.insert(pos % (len(line) + 1), token)
        elif kind == "delete" and line:
            del line[pos % len(line)]
        elif kind == "duplicate":
            lines.insert(pos % (len(lines) + 1), list(line))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@pytest.mark.parametrize("kind", sorted(VALID))
@settings(max_examples=250, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=4))
def test_mutated_text_loads_or_raises_format_error(kind, edits):
    loads, text = VALID[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            loads(mutate(text, edits))
        except FormatError:
            pass


@pytest.mark.parametrize("kind", sorted(VALID))
def test_unmutated_text_loads(kind):
    loads, text = VALID[kind]
    assert loads(mutate(text, [])) is not None

"""Parsers meet arbitrary input with FormatError, never with a traceback.

Each parser gets arbitrary text, arbitrary bytes through a file, and text
drawn from the characters its formats use, so that the examples reach
past the first check.  SmallGraph.from_graph6 may also raise the
ValueError it documents for graphs above MAX_SMALL_VERTICES.
"""

import pytest
from hypothesis import assume, example, given, strategies as st

from indsub.errors import FormatError
from indsub.graphs import (
    SmallGraph,
    load_graph_list,
    load_host_graph,
    load_small_graph,
    parse_graph_text,
)
from indsub.properties import load_truth_table, truth_table_property

GRAPH_CHARS = "0123456789-# \n\t>graph6<~?@ABCw_{}\x7f²٣"
TABLE_CHARS = "k=0123456789-+ #\n\x00²"

texts = st.one_of(st.text(), st.text(alphabet=GRAPH_CHARS))
table_texts = st.one_of(st.text(), st.text(alphabet=TABLE_CHARS))
contents = st.one_of(texts.map(str.encode), st.binary())


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def _small_host(text: str) -> bool:
    """A host allocates per declared vertex: a header may name up to
    MAX_HOST_VERTICES isolated vertices, which is valid input but too large
    to build in every example."""
    try:
        n, _ = parse_graph_text(text)
    except FormatError:
        return True
    return n <= 10_000


@given(texts)
@example("²")               # str.isdigit() accepts it, int() does not
@example("--5")
@example("4 1\n0 ²")
@example("1" * 5000)        # more digits than int() converts
def test_parse_graph_text_raises_only_format_error(text):
    try:
        n, pairs = parse_graph_text(text)
    except FormatError:
        return
    assert n >= 0
    assert all(0 <= u < n and 0 <= v < n and u != v for u, v in pairs)


@given(texts)
def test_from_graph6_raises_only_its_documented_errors(text):
    try:
        g = SmallGraph.from_graph6(text)
    except (FormatError, ValueError):
        return
    assert SmallGraph.from_graph6(g.to_graph6()) == g


@given(contents)
def test_graph_loaders_raise_only_format_error(path, data):
    path.write_bytes(data)
    for loader in (load_small_graph, load_graph_list):
        try:
            loader(path)
        except FormatError:
            pass
    try:
        assume(_small_host(data.decode()))
    except UnicodeDecodeError:
        pass
    try:
        load_host_graph(path)
    except FormatError:
        pass


@given(st.one_of(table_texts.map(str.encode), st.binary()))
@example(b"k=0\n1\n")
@example(b"k=99\n1\n")
@example(b"k=3\n\xff\n")
def test_truth_table_parser_raises_only_format_error(path, data):
    path.write_bytes(data)
    try:
        truth_table_property(load_truth_table(path))
    except FormatError:
        pass

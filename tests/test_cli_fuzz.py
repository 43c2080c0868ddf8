"""The CLI keeps its exit-status contract under fuzzed arguments.

main(argv) returns 0, 1 or 2, or leaves through argparse's --help with
SystemExit(0); no other exception escapes, and every exit 1 prints one
stderr line that starts with one of main's error prefixes.  Argument lists
mix subcommand and flag names with valid and invalid values, and the file
flags name files that hold fuzzed bytes or small valid inputs.

Values are bounded so that every example stays cheap: --k and --kmax stay
below the k = 8 catalog (9 still tests the range checks), --bound stays
at most 3, hosts have at most 10 vertices and the graphs of a graph list
at most 5, which bounds the explosions that critical and reduce-demo
check.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, strategies as st

from indsub.catalog import build_catalog
from indsub.cli import main
from indsub.graphs import HostGraph, pair_table
from indsub.properties import BUILTIN_PROPERTIES

PREFIXES = ("usage error:", "unknown property:", "malformed graph file:",
            "budget exceeded:", "property evaluation failed:")
PROPERTY = "property option"
FORMAT = "output format"
COMMAND_FLAGS = {
    "catalog": ("--k", "--list", "--json"),
    "spectrum": (PROPERTY, "--k", "--json"),
    "homvector": (PROPERTY, "--k", "--json"),
    "count": ("--graph", PROPERTY, "--k", "--method", "--budget", "--json"),
    "diagnose": (PROPERTY, "--kmax", FORMAT),
    "critical": ("--forbidden", "--property", "--bound", "--json"),
    "reduce-demo": ("--bipartite", "--k", "--forbidden", "--property",
                    "--method", "--bound", "--budget", "--json"),
    "selftest": (),
}
PROPERTY_FLAGS = ("--property", "--truth-table", "--forbidden-induced",
                  "--forbidden-subgraph")
SWITCHES = ("--list", "--json", "--text", "--help")


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = [p for p in pair_table(n) if draw(st.booleans())]
    return HostGraph.from_edges(n, pairs)


def edge_list_text(g):
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edge_pairs()]
    return "\n".join(lines) + "\n"


@st.composite
def truth_table_text(draw):
    k = draw(st.integers(1, 4))
    bits = "".join(draw(st.sampled_from("01"))
                   for _ in range(build_catalog(k).class_count))
    return f"k={k}\n{bits}\n"


hosts = st.one_of(graphs(10).map(edge_list_text),
                  graphs(10).map(lambda g: g.to_graph6() + "\n"))
graph_lists = st.lists(graphs(5), min_size=1, max_size=2).map(
    lambda gs: "".join(g.to_graph6() + "\n" for g in gs))
FILES = {
    "--graph": hosts,
    "--bipartite": hosts,
    "--forbidden": graph_lists,
    "--forbidden-induced": graph_lists,
    "--forbidden-subgraph": graph_lists,
    "--truth-table": truth_table_text(),
}

junk = st.text(max_size=6)
# The simplest draw of each value strategy is valid, so that the first
# examples reach past the argument checks.
k_values = st.sampled_from((3, 2, 4, 5, 6, 7, 1, 0, -1, -2, 9)).map(str)
VALUES = {
    "--k": k_values,
    "--kmax": k_values,
    "--bound": st.integers(-2, 3).map(str),
    "--budget": st.integers(-2, 9).map(str),
    "--method": st.sampled_from(("basis", "brute", "both", "fast")),
    "--property": st.sampled_from(sorted(BUILTIN_PROPERTIES)
                                  + ["no-such-property", ""]),
}
ALL_FLAGS = sorted(VALUES) + sorted(FILES) + list(SWITCHES)


def rarely(n):
    """True one time in n; False for the simplest draw."""
    return st.integers(1, n).map(lambda i: i == n)


@st.composite
def arguments(draw, flag, files):
    """flag with a value drawn for it nine times in ten, else junk.  A file
    flag names a new file, recorded in files with its contents: valid
    input for the flag, or fuzzed bytes one time in five."""
    if flag == PROPERTY:
        flag = draw(st.sampled_from(PROPERTY_FLAGS))
    elif flag == FORMAT:
        flag = draw(st.sampled_from(("--json", "--text")))
    if flag in SWITCHES:
        return [flag]
    if draw(rarely(10)):
        return [flag, draw(junk)]
    if flag in FILES:
        name = f"input{len(files)}"
        if draw(rarely(5)):
            files[name] = draw(st.binary(max_size=40))
        else:
            files[name] = draw(FILES[flag]).encode()
        return [flag, name]
    return [flag, draw(VALUES[flag])]


@st.composite
def invocations(draw):
    """(argv, files): a subcommand (junk one time in eight), most of its own
    flags, then maybe an arbitrary flag or junk token.  files maps the
    file names in argv to their contents."""
    files = {}
    if draw(rarely(8)):
        command = draw(junk)
    else:
        command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command] if command else []
    for flag in COMMAND_FLAGS.get(command, ()):
        if not draw(rarely(6)):
            argv += draw(arguments(flag, files))
    if draw(rarely(3)):
        if draw(st.booleans()):
            flag = draw(st.sampled_from(ALL_FLAGS))
            argv += draw(arguments(flag, files))
        else:
            argv.append(draw(junk))
    return argv, files


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli-fuzz"))


@given(invocations())
@example((["catalog", "--k", "3", "x\ny"], {}))      # argparse echoes a newline
@example((["diagnose", "--forbidden-subgraph", "input0", "--kmax", "3"],
          {"input0": b"?\n"}))    # forbidding the 0-vertex graph: r = 0
def test_cli_exit_contract_under_fuzzed_arguments(directory, case):
    argv, files = case
    for name, contents in files.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(contents)
    argv = [os.path.join(directory, tok) if tok in files else tok
            for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0, argv
            assert out.getvalue().startswith("usage:"), argv
            return
    assert code in (0, 1, 2), argv
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert lines[0].startswith(PREFIXES), (argv, lines)

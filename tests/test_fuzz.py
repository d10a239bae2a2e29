"""Input fuzzing: arbitrary text and near-valid files never crash.

Both parsers either return a graph or raise ``GraphFormatError``. The
``persistence`` command exits 0, 3 or 4 on any input file and never
prints a traceback, and so do ``scaffold`` and ``compare --input``,
which run further on an accepted input, on near-valid files (serially,
with ``--parallelism 1``). Near-valid inputs are small valid edge lists and
adjacency matrices with a few edits: a span deleted, a token inserted,
a line replaced or duplicated. The tokens include the classes of value
that have broken parsers before: non-finite and out-of-range numbers,
huge exponents, deep JSON nesting and non-ASCII digits.
"""

import io
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from netscaffold.cli import EXIT_DATA, EXIT_IO, EXIT_OK, main
from netscaffold.graph import GraphFormatError, parse_adjacency, parse_edge_list

TOKENS = [
    ",", "\n", "\r\n", "#", " ", "\t", "{", "}", "[", "]", '"', ":", "-",
    "/", ".", "e", "0", "7", "-1", "1/0", "3/", "nan", "inf", "-0",
    "1e400", "1e-400", "1e99999999", "0e-99999999", "1E+99999999999",
    "1e99_999_999", "_",
    "9" * 5000, "99999999999", "null", "true", '"n_vertices"', '"labels"',
    '{"n_vertices": 3}', '{"labels": [1, 2]}', '{"n_vertices": 1e400}',
    '{"x": ' + "[" * 5000 + "]" * 5000 + "}", "\x00", "é", "٣", "１",
]

weights = st.sampled_from(["0", "1", "2", "1/2", "0.3", "2.5e1", "7/3", "1e-3"])


@st.composite
def edge_list_texts(draw) -> str:
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))
    lines = [f"{u},{v},{draw(weights)}" for u, v in chosen]
    if draw(st.booleans()):
        lines.insert(0, f'{{"n_vertices": {n}}}')
    return "\n".join(lines) + "\n"


@st.composite
def adjacency_texts(draw) -> str:
    n = draw(st.integers(1, 5))
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(weights)
    sep = draw(st.sampled_from([",", " "]))
    return "\n".join(sep.join(r) for r in rows) + "\n"


@st.composite
def mutated(draw, base: st.SearchStrategy[str]) -> str:
    text = draw(base)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["delete", "insert", "replace_line", "duplicate_line"]))
        at = draw(st.integers(0, len(text)))
        if kind == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        elif kind == "insert":
            text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
        else:
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            new = draw(st.sampled_from(TOKENS)) if kind == "replace_line" else lines[i]
            lines[i:i + 1] = [new] if kind == "replace_line" else [new, new]
            text = "\n".join(lines)
    return text


def parses_or_rejects(parse, text: str) -> None:
    try:
        parse(text)
    except GraphFormatError:
        pass


@given(st.text())
@settings(max_examples=200, deadline=None)
def test_edge_list_parser_on_arbitrary_text(text):
    parses_or_rejects(parse_edge_list, text)


@given(mutated(edge_list_texts()))
@settings(max_examples=300, deadline=None)
def test_edge_list_parser_on_near_valid_text(text):
    parses_or_rejects(parse_edge_list, text)


@given(st.text())
@settings(max_examples=200, deadline=None)
def test_adjacency_parser_on_arbitrary_text(text):
    parses_or_rejects(parse_adjacency, text)


@given(mutated(adjacency_texts()))
@settings(max_examples=300, deadline=None)
def test_adjacency_parser_on_near_valid_text(text):
    parses_or_rejects(parse_adjacency, text)


def exits_cleanly(command: list[str], fmt: str, text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(
                [
                    *command, "--input", str(path), "--format", fmt,
                    "--output-dir", str(Path(tmp) / "out"),
                ]
            )
    assert code in (EXIT_OK, EXIT_IO, EXIT_DATA)
    assert "Traceback" not in err.getvalue()


near_valid_files = st.one_of(
    st.tuples(st.just("edgelist"), mutated(edge_list_texts())),
    st.tuples(st.just("adjacency"), mutated(adjacency_texts())),
)


@given(
    st.one_of(
        st.tuples(st.just("edgelist"), st.text() | mutated(edge_list_texts())),
        st.tuples(st.just("adjacency"), st.text() | mutated(adjacency_texts())),
    )
)
@settings(max_examples=200, deadline=None)
def test_persistence_command_exits_cleanly(case):
    exits_cleanly(["persistence"], *case)


@given(near_valid_files)
@settings(max_examples=100, deadline=None)
def test_scaffold_command_exits_cleanly(case):
    exits_cleanly(["scaffold", "--parallelism", "1"], *case)


@given(near_valid_files)
@settings(max_examples=50, deadline=None)
def test_compare_input_exits_cleanly(case):
    exits_cleanly(["compare", "--parallelism", "1"], *case)

"""The shared line grammar of poset and graph files, its writer, and the memory check on sizes."""

import pytest

import posetmc as pm
from posetmc import poset
from posetmc.cli import main
from conftest import diamond

# (parser, header, count line keyword, pair keyword, id noun)
FORMATS = [
    pytest.param(pm.parse_poset_text, "poset", "elements", "cover", "element", id="poset"),
    pytest.param(pm.parse_graph_text, "graph", "vertices", "edge", "vertex", id="graph"),
]

# (case, lines after the header, expected message); {count}, {pair} and
# {noun} are filled in per format
BAD_TEXTS = [
    ("repeated header", ["{header} again", "{count} 2"], "line 2: duplicate '{header}' header"),
    ("repeated count", ["{count} 2", "{count} 3"], "line 3: duplicate '{count}' line"),
    ("bad count", ["{count} two"], "line 2: expected '{count} <n>'"),
    ("non-integer id", ["{count} 2", "{pair} 0 one"], "line 3: non-integer {noun} id"),
    ("unknown directive", ["{count} 2", "frob 0 1"], "line 3: unknown directive 'frob'"),
    ("missing count", ["{pair} 0 1"], "missing '{count} <n>' line"),
]


@pytest.mark.parametrize("parse, header, count, pair, noun", FORMATS)
@pytest.mark.parametrize("case, lines, message", BAD_TEXTS, ids=[case for case, _, _ in BAD_TEXTS])
def test_malformed_text_names_the_line(parse, header, count, pair, noun, case, lines, message):
    fill = dict(header=header, count=count, pair=pair, noun=noun)
    text = "\n".join([f"{header} t"] + [line.format(**fill) for line in lines]) + "\n"
    with pytest.raises(pm.FormatError) as exc:
        parse(text)
    assert str(exc.value) == message.format(**fill)


def test_writers_pinned_bytes():
    assert pm.format_poset_text(diamond(), name="d") == (
        "poset d\nelements 4\ncover 0 1\ncover 0 2\ncover 1 3\ncover 2 3\n"
    )
    g = pm.SimpleGraph.from_edges(4, [(2, 1), (0, 3), (0, 1)])
    assert pm.format_graph_text(g, name="g") == "graph g\nvertices 4\nedge 0 1\nedge 0 3\nedge 1 2\n"


@pytest.fixture
def small_memory(monkeypatch):
    # room for dense posets of at most 10 elements
    monkeypatch.setattr(poset, "_physical_memory", lambda: poset.DENSE_BYTES_PER_CELL * 10 * 10)


@pytest.mark.parametrize(
    "argv, what",
    [
        (["gen", "independent", "4"], "4 vertices"),
        (["gen", "random", "11", "0.5", "1"], "11 elements"),
        (["bench", "--sizes", "11", "--qsize", "2"], "11 elements"),
    ],
    ids=["independent", "random", "bench"],
)
def test_sizes_from_the_command_line_get_the_memory_check(small_memory, argv, what, capsys):
    assert main(argv) == 2
    assert f"{what} do not fit a dense relation matrix" in capsys.readouterr().err


def test_memory_check_admits_what_fits(small_memory, capsys):
    assert main(["gen", "independent", "3"]) == 0
    assert main(["gen", "random", "10", "0.5", "1"]) == 0
    assert main(["bench", "--sizes", "10", "--qsize", "2", "--solvers", "clique"]) == 0
    with pytest.raises(pm.FormatError, match="line 2: 4 vertices"):
        pm.parse_graph_text("graph g\nvertices 4\n")
    with pytest.raises(pm.PreconditionViolation, match="11 elements"):
        pm.banded_poset(11, 3)
    with pytest.raises(pm.PreconditionViolation, match="12 elements"):
        pm.stack_posets([pm.random_poset(6, 0.5, 1)] * 2)

import subprocess
import sys

import pytest

import posetmc as pm
from posetmc.cli import _bench_instances, main


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def chain2(tmp_path):
    return _write(tmp_path, "chain2.poset", "poset chain2\nelements 2\ncover 0 1\n")


@pytest.fixture
def anti2(tmp_path):
    return _write(tmp_path, "anti2.poset", "poset anti2\nelements 2\n")


PHI = "E x. E y. x <= y & !(y <= x)"


def test_check_yes_with_witness(chain2, capsys):
    code = main(["check", "--phi", PHI, "--poset", chain2, "--witness"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "YES"
    assert out[1:] == ["var x -> 0", "var y -> 1"]


def test_check_no(anti2, capsys):
    code = main(["check", "--phi", PHI, "--poset", anti2])
    assert code == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_check_malformed_poset_names_cycle(tmp_path, capsys):
    bad = _write(tmp_path, "bad.poset", "poset bad\nelements 2\ncover 0 1\ncover 1 0\n")
    code = main(["check", "--phi", "E x. x <= x", "--poset", bad])
    captured = capsys.readouterr()
    assert code == 2
    assert "cycle" in captured.err and "0" in captured.err and "1" in captured.err


def test_check_solver_selection(chain2, capsys):
    for solver in ("clique", "csp", "brute"):
        assert main(["check", "--phi", PHI, "--poset", chain2, "--solver", solver]) == 0
        assert capsys.readouterr().out.strip() == "YES"


def test_check_formula_file(tmp_path, chain2, capsys):
    formula = _write(tmp_path, "phi.txt", PHI + "\n")
    assert main(["check", "--formula", formula, "--poset", chain2]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_check_missing_file_is_error(capsys):
    assert main(["check", "--phi", PHI, "--poset", "/nonexistent.poset"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_bad_formula_is_error(chain2, capsys):
    assert main(["check", "--phi", "A x. x <= x", "--poset", chain2]) == 2
    assert main(["check", "--poset", chain2]) == 2
    capsys.readouterr()


def test_embed_yes_no_and_witness(tmp_path, capsys):
    i1 = _write(tmp_path, "i1.poset", pm.format_poset_text(pm.independent_poset(1)))
    chain5 = _write(
        tmp_path, "c5.poset", "poset c\nelements 5\n" + "".join(f"cover {i} {i+1}\n" for i in range(4))
    )
    anti2 = _write(tmp_path, "a2.poset", "poset a\nelements 2\n")
    chain3 = _write(tmp_path, "c3.poset", "poset c\nelements 3\ncover 0 1\ncover 1 2\n")

    assert main(["embed", "--pattern", i1, "--host", chain5, "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "YES" and len(out) == 4

    assert main(["embed", "--pattern", anti2, "--host", chain3]) == 1
    assert capsys.readouterr().out.strip() == "NO"

    # identity case: pattern equals host
    assert main(["embed", "--pattern", chain3, "--host", chain3]) == 0
    capsys.readouterr()


def test_embed_oversized_poset_is_error(tmp_path, capsys):
    huge = _write(tmp_path, "huge.poset", "poset huge\nelements 10000000000\n")
    assert main(["embed", "--pattern", huge, "--host", huge]) == 2
    assert "10000000000 elements" in capsys.readouterr().err


def test_gen_oversized_graph_is_error(tmp_path, capsys):
    huge = _write(tmp_path, "huge.graph", "graph huge\nvertices 10000000000\n")
    assert main(["gen", "poset-of-graph", huge]) == 2
    assert "10000000000 vertices" in capsys.readouterr().err


def _write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


NOT_UTF8 = b"\xff\xfe" + "poset p\nelements 2\n".encode("utf-16-le")


def test_non_utf8_poset_is_error(tmp_path, capsys):
    path = _write_bytes(tmp_path, "p.poset", NOT_UTF8)
    assert main(["width", "--poset", path]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_non_utf8_graph_is_error(tmp_path, capsys):
    path = _write_bytes(tmp_path, "g.graph", NOT_UTF8)
    assert main(["gen", "poset-of-graph", path]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_superscript_element_count_is_error(tmp_path, capsys):
    # "²" passes str.isdigit() but not int()
    path = _write(tmp_path, "p.poset", "poset p\nelements \u00b2\n")
    assert main(["width", "--poset", path]) == 2
    assert "expected 'elements <n>'" in capsys.readouterr().err


def test_superscript_vertex_count_is_error(tmp_path, capsys):
    path = _write(tmp_path, "g.graph", "graph g\nvertices \u00b2\n")
    assert main(["gen", "poset-of-graph", path]) == 2
    assert "expected 'vertices <n>'" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["clique", "csp", "brute"])
@pytest.mark.parametrize("empty_side", ["pattern", "host"])
def test_embed_empty_poset_is_error(tmp_path, chain2, solver, empty_side, capsys):
    empty = _write(tmp_path, "empty.poset", "poset empty\nelements 0\n")
    pattern, host = (empty, chain2) if empty_side == "pattern" else (chain2, empty)
    assert main(["embed", "--solver", solver, "--pattern", pattern, "--host", host]) == 2
    assert "must be nonempty" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "1e3"])
def test_bad_oracle_cap_is_error(tmp_path, chain2, value, monkeypatch, capsys):
    monkeypatch.setenv("POSETMC_ORACLE_CAP", value)
    assert main(["embed", "--solver", "brute", "--pattern", chain2, "--host", chain2]) == 2
    assert "POSETMC_ORACLE_CAP" in capsys.readouterr().err


def test_non_utf8_formula_is_error(tmp_path, chain2, capsys):
    path = _write_bytes(tmp_path, "phi.txt", b"\xff\xfe" + PHI.encode("utf-16-le"))
    assert main(["check", "--formula", path, "--poset", chain2]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "phi",
    ["E x. " + "(" * 400 + "x <= x" + ")" * 400, "E x. " + "!" * 3000 + "x <= x"],
    ids=["parentheses", "negations"],
)
def test_deep_nesting_is_error(chain2, phi, capsys):
    assert main(["check", "--phi", phi, "--poset", chain2]) == 2
    assert "nesting deeper than" in capsys.readouterr().err


def test_width_output(tmp_path, capsys):
    i4 = _write(tmp_path, "i4.poset", pm.format_poset_text(pm.independent_poset(4)))
    assert main(["width", "--poset", i4]) == 0
    assert capsys.readouterr().out.strip() == "4"

    chain7 = _write(
        tmp_path, "c7.poset", "poset c\nelements 7\n" + "".join(f"cover {i} {i+1}\n" for i in range(6))
    )
    assert main(["width", "--poset", chain7]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_width_random_matches_bruteforce(tmp_path, capsys):
    p = pm.random_poset(10, 0.4, 7)
    path = _write(tmp_path, "r.poset", pm.format_poset_text(p))
    assert main(["width", "--poset", path, "--chains", "--antichain"]) == 0
    lines = capsys.readouterr().out.splitlines()
    w = int(lines[0])
    assert w == pm.brute_force_width(p)
    chains = [tuple(map(int, line.split())) for line in lines[1:-1]]
    assert len(chains) == w
    assert sorted(e for ch in chains for e in ch) == list(range(10))
    anti = list(map(int, lines[-1].split()))
    assert len(anti) == w


def test_gen_independent(capsys):
    assert main(["gen", "independent", "2"]) == 0
    out = capsys.readouterr().out
    assert "elements 6" in out
    assert out.count("cover") == 4
    assert pm.parse_poset_text(out) == pm.independent_poset(2)


def test_gen_random_antichain(capsys):
    assert main(["gen", "random", "5", "0.0", "1"]) == 0
    out = capsys.readouterr().out
    assert "elements 5" in out and "cover" not in out


def test_gen_random_negative_size_is_error(capsys):
    assert main(["gen", "random", "-1", "0.5", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_gen_deterministic(capsys):
    assert main(["gen", "random", "8", "0.5", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "8", "0.5", "42"]) == 0
    assert capsys.readouterr().out == first


def test_gen_poset_of_graph_closure_idempotent(tmp_path, capsys):
    k2 = _write(tmp_path, "k2.graph", "graph k2\nvertices 2\nedge 0 1\n")
    assert main(["gen", "poset-of-graph", k2]) == 0
    out = capsys.readouterr().out
    p = pm.parse_poset_text(out)
    assert p == pm.poset_of_graph(pm.SimpleGraph.from_edges(2, [(0, 1)]))


def test_gen_stack(tmp_path, capsys):
    c1 = _write(tmp_path, "c1.poset", "poset c\nelements 1\n")
    assert main(["gen", "stack", c1, c1]) == 0
    out = capsys.readouterr().out
    assert pm.parse_poset_text(out) == pm.close_and_validate(2, [(0, 1)])


def test_bench_row_count_and_agreement(capsys):
    assert (
        main(
            [
                "bench", "--sizes", "24", "--qsize", "3", "--width", "3",
                "--repeats", "2", "--seed", "5", "--solvers", "clique,csp",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "solver,q,p,width,branches,ops,usec,verdict"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4  # one size x two repeats x two solvers
    for pair_start in range(0, 4, 2):
        a, b = rows[pair_start], rows[pair_start + 1]
        assert a[0] == "clique" and b[0] == "csp"
        assert a[-1] == b[-1]  # verdicts agree


def test_bench_deterministic_modulo_wallclock(capsys):
    args = ["bench", "--sizes", "18,24", "--repeats", "1", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out.splitlines()
    assert main(args) == 0
    second = capsys.readouterr().out.splitlines()

    def strip_usec(lines):
        out = []
        for line in lines:
            if line.startswith(("#", "solver")):
                out.append(line)
            else:
                cells = line.split(",")
                out.append(",".join(cells[:6] + cells[7:]))
        return out

    assert strip_usec(first) == strip_usec(second)


def test_bench_counts_and_witnesses_pinned(capsys):
    args = ["bench", "--sizes", "50,100", "--qsize", "4", "--width", "3", "--repeats", "2", "--seed", "3"]
    assert main(args) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert [",".join(cells[:6] + cells[7:]) for cells in rows] == [
        "clique,4,50,3,1,1151,YES",
        "csp,4,50,3,1,5557,YES",
        "clique,4,50,3,0,2566,NO",
        "csp,4,50,3,0,2566,NO",
        "clique,4,100,3,12,22775,NO",
        "csp,4,100,3,12,421317,NO",
        "clique,4,100,3,6,26879,NO",
        "csp,4,100,3,6,559343,NO",
    ]
    pattern, host = next(_bench_instances([50], 4, 3, 2, 3))
    assert pm.embed_via_clique(pattern, host) == (17, 0, 1, 2)
    assert pm.embed_via_csp(pattern, host) == (17, 0, 1, 2)


def test_bench_bad_arguments(capsys):
    assert main(["bench", "--sizes", "10", "--solvers", "nope"]) == 2
    capsys.readouterr()


def test_bench_non_integer_size_is_error(capsys):
    assert main(["bench", "--sizes", "10,x"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "posetmc.cli", "gen", "independent", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "elements 3" in proc.stdout

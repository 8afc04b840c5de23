import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import disjoint_union, edge_sets
from perfcode import (
    DimacsError,
    cycle_graph,
    parse_dimacs,
    path_graph,
    square,
    write_dimacs,
)
from perfcode.cli import main


# -- parsing --------------------------------------------------------------------

def test_parse_minimal_p3():
    gf = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\n")
    assert gf.graph == path_graph(3)
    assert gf.weights is None


def test_parse_weight_line():
    gf = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3\nn 2 5\n")
    assert gf.weights == (1, 5, 1)  # unweighted vertices default to 1


def test_parse_comments_and_blanks():
    gf = parse_dimacs("c a comment\n\np edge 2 1\nc more\ne 1 2\n")
    assert gf.graph == path_graph(2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edge 3 1\ne 1 1\n", "line 2: self-loop"),
        ("p edge 3 1\ne 1 4\n", "line 2: vertex id 4 out of range"),
        ("p edge 3 0\nn 1 2\nn 1 3\n", "line 3: duplicate weight"),
        ("p graph 3 0\n", "line 1: expected 'p edge"),
        ("e 1 2\n", "line 1: edge before problem header"),
        ("p edge 2 0\nn 1 -3\n", "line 2: negative weight"),
        ("p edge 2 1\ne 1 2\nn 1 5 7\n", "line 3: expected 'n <v> <w>'"),
        ("p edge 2 0\nq 1\n", "unknown line type"),
        ("c nothing\n", "missing 'p edge"),
        ("p edge 2 0\np edge 2 0\n", "line 2: duplicate problem header"),
    ],
)
def test_parse_errors_carry_line_numbers(text, message):
    with pytest.raises(DimacsError, match=message):
        parse_dimacs(text)


@given(edge_sets(max_n=9), st.booleans(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_write_parse_round_trip(ne, weighted, wseed):
    from perfcode import from_edge_list
    import random

    n, edges = ne
    g = from_edge_list(n, edges)
    weights = None
    if weighted and n:
        rng = random.Random(wseed)
        weights = tuple(rng.randint(0, 9) for _ in range(n))
    text = write_dimacs(g, weights)
    gf = parse_dimacs(text)
    assert gf.graph == g
    if weights is None or not n:
        assert gf.weights is None or gf.weights == weights
    else:
        assert gf.weights == weights


# -- CLI ------------------------------------------------------------------------

@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.col"
    weights = (1, 2, 3, 4, 5, 6)
    path.write_text(write_dimacs(cycle_graph(6), weights))
    return path


@pytest.fixture
def p7_file(tmp_path):
    path = tmp_path / "p7.col"
    path.write_text(write_dimacs(path_graph(7)))
    return path


def test_cli_solve_weighted_c6(c6_file, capsys):
    code = main(["solve", str(c6_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "exists: yes" in out
    assert "set: 1 4" in out
    assert "weight: 5" in out
    assert "path: exact-fallback" in out


def test_cli_solve_json_fields(c6_file, capsys):
    code = main(["solve", str(c6_file), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["exists", "set", "weight", "path", "diagnostics", "seed"]
    assert doc["exists"] is True
    assert doc["set"] == [1, 4]
    assert doc["weight"] == 5
    assert doc["diagnostics"]["chordal"] is False


def test_cli_solve_unit_weights(c6_file, capsys):
    code = main(["solve", str(c6_file), "--weights", "unit"])
    out = capsys.readouterr().out
    assert code == 0 and "weight: 2" in out


def test_cli_solve_no_ed_exit_code(tmp_path, capsys):
    path = tmp_path / "c4.col"
    path.write_text(write_dimacs(cycle_graph(4)))
    code = main(["solve", str(path)])
    assert code == 3
    assert "exists: no" in capsys.readouterr().out


# `perfcode solve` stdout recorded at commit 10c5d5e
PINNED_C9_P5_K1 = (
    "exists: yes\n"
    "set: 1 4 7 11 14 15\n"
    "weight: 18\n"
    "path: exact-fallback\n"
    "square chordal: no\n"
    "square hole-free: no\n"
    "square odd-antihole-free: yes\n"
)
PINNED_C7_P3 = (
    "exists: no\n"
    "set: -\n"
    "weight: -\n"
    "path: exact-fallback\n"
    "square chordal: no\n"
    "square hole-free: yes\n"
    "square odd-antihole-free: no\n"
)
PINNED_C6_P4_11K2 = (
    "exists: yes\n"
    "set: 1 4 7 10 11 13 15 18 20 22 23 25 27 29 32\n"
    "weight: 41\n"
    "path: exact-fallback\n"
    "square chordal: no\n"
    "square hole-free: skipped\n"
    "square odd-antihole-free: skipped\n"
)


@pytest.mark.parametrize(
    "parts, code, expected",
    [
        # C9 has an e.d., and its square holds a C5 hole
        ([cycle_graph(9), path_graph(5), path_graph(1)], 0, PINNED_C9_P5_K1),
        # C7 has no e.d., and its square is co-C7
        ([cycle_graph(7), path_graph(3)], 3, PINNED_C7_P3),
        # n = 32 is past the default diagnostics budget of 30
        ([cycle_graph(6), path_graph(4)] + [path_graph(2)] * 11, 0, PINNED_C6_P4_11K2),
    ],
)
def test_cli_solve_disconnected_stdout_is_pinned(tmp_path, capsys, monkeypatch, parts, code, expected):
    monkeypatch.delenv("PERFCODE_VERIFY_BUDGET", raising=False)
    g = disjoint_union(*parts)
    path = tmp_path / "union.col"
    path.write_text(write_dimacs(g, tuple(3 * v % 7 + 1 for v in range(g.n))))
    assert main(["solve", str(path)]) == code
    assert capsys.readouterr().out == expected


def test_cli_solve_long_cycle(tmp_path, capsys):
    path = tmp_path / "c3000.col"
    path.write_text(write_dimacs(cycle_graph(3000)))
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "exists: yes" in out and "path: exact-fallback" in out


def test_cli_solve_missing_weights_is_error(p7_file, capsys):
    code = main(["solve", str(p7_file), "--weights", "from-file"])
    assert code == 1
    assert "no weight lines" in capsys.readouterr().err


def test_cli_check_class_p7(p7_file, capsys):
    code = main(["check-class", str(p7_file), "--class", "P6-free"])
    out = capsys.readouterr().out
    assert code == 3
    assert "member: no" in out
    assert "violation: P6 1 2 3 4 5 6" in out


def test_cli_check_class_member(c6_file, capsys):
    code = main(["check-class", str(c6_file), "--class", "(P6,house)-free"])
    assert code == 0
    assert "member: yes" in capsys.readouterr().out


def test_cli_square_round_trips(tmp_path, capsys):
    path = tmp_path / "p4.col"
    path.write_text(write_dimacs(path_graph(4)))
    code = main(["square", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_dimacs(out).graph == square(path_graph(4))
    assert parse_dimacs(out).graph.edge_count == 5


def test_cli_verify_theorems(capsys):
    code = main(
        ["verify-theorems", "--theorem", "T1", "--seed", "3", "--trials", "25",
         "--nmin", "7", "--nmax", "10", "--json"]
    )
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["theorem"] == "T1" and doc["trials"] == 25
    assert doc["counterexamples"] == []
    assert "wall clock" in captured.err


def test_cli_verify_exhaustive(capsys):
    code = main(["verify-theorems", "--theorem", "T2", "--exhaustive-n", "4"])
    assert code == 0
    assert "theorem T2: 0 counterexample(s)" in capsys.readouterr().out


def test_cli_gen_er_deterministic(capsys):
    code = main(["gen", "--model", "er", "--n", "8", "--p", "0.5", "--seed", "7"])
    first = capsys.readouterr().out
    assert code == 0
    main(["gen", "--model", "er", "--n", "8", "--p", "0.5", "--seed", "7"])
    assert capsys.readouterr().out == first
    main(["gen", "--model", "er", "--n", "8", "--p", "0.5", "--seed", "8"])
    assert capsys.readouterr().out != first


def test_cli_gen_negative_n_is_a_usage_error(capsys):
    assert main(["gen", "--model", "er", "--n", "-1"]) == 2
    assert "vertex count" in capsys.readouterr().err


def test_cli_gen_chordal_parses(capsys):
    code = main(["gen", "--model", "chordal", "--n", "10", "--p", "0.3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    from perfcode import is_chordal

    assert is_chordal(parse_dimacs(out).graph)[0]


def test_cli_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["solve"]) == 2
    assert main(["verify-theorems", "--theorem", "T9"]) == 2
    # semantically invalid configurations are usage errors too
    assert main(["verify-theorems", "--theorem", "T1"]) == 2  # no corpus at all
    assert main(["verify-theorems", "--theorem", "T2", "--trials", "5", "--nmax", "99"]) == 2
    assert main(["verify-theorems", "--theorem", "T2", "--trials", "20", "--nmin", "-3",
                 "--nmax", "5"]) == 2
    assert main(["gen", "--model", "er", "--n", "5", "--p", "1.5"]) == 2
    capsys.readouterr()


def test_cli_io_error_exit_1(capsys):
    assert main(["solve", "/nonexistent/file.col"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.col"
    path.write_text("p edge 2 1\ne 1 1\n")
    assert main(["solve", str(path)]) == 1
    assert "self-loop" in capsys.readouterr().err


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize(
    "g, weights, chosen",
    [
        pytest.param(cycle_graph(6), (1, 2, 3, 4, 5, 6), "set: 1 4\n", id="c6"),
        # the unique e.d. of P3000 is every third vertex from the second
        pytest.param(path_graph(3000), None, "set: 2 5 8 ", id="p3000"),
    ],
)
def test_cli_force_path(tmp_path, capsys, g, weights, chosen):
    path = tmp_path / "g.col"
    path.write_text(write_dimacs(g, weights))
    code = main(["solve", str(path), "--force-path", "oracle"])
    out = capsys.readouterr().out
    assert code == 0 and "path: oracle" in out and chosen in out


def test_cli_verify_counterexample_exit_code(monkeypatch, capsys):
    # no real counterexample is known, so fake one to pin the exit code
    # and the 1-based id translation on the way out
    from perfcode.verify import VerificationReport
    import perfcode.cli as cli

    record = {
        "theorem": "T2",
        "n": 3,
        "edges": [[0, 1], [1, 2]],
        "ed": [1],
        "witness": ["C3", [0, 1, 2]],
        "corpus": "random",
        "index": 4,
    }
    fake = VerificationReport(
        theorem="T2", seed=1, corpus={}, budget=30, trials=1, held=0,
        held_trivially=0, vacuous=0, skipped=0, counterexamples=(record,),
        wall_clock_s=0.1,
    )
    monkeypatch.setattr(cli, "run_campaign", lambda config: fake)
    code = main(["verify-theorems", "--theorem", "T2", "--trials", "1", "--json"])
    captured = capsys.readouterr()
    assert code == 4
    doc = json.loads(captured.out)
    out_record = doc["counterexamples"][0]
    assert out_record["edges"] == [[1, 2], [2, 3]]
    assert out_record["ed"] == [2]
    assert out_record["witness"] == ["C3", [1, 2, 3]]

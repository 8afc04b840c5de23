import json
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import disjoint_union, edge_sets, run_from_checkout
from perfcode import (
    CLASS_TAGS,
    THEOREM_IDS,
    DimacsError,
    cycle_graph,
    parse_dimacs,
    path_graph,
    solve,
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
    with pytest.raises(ValueError, match="weight vector has length 2, expected 3"):
        write_dimacs(path_graph(3), (1, 2))


@pytest.mark.parametrize(
    "weights, message",
    [
        ((1, "x"), "non-integer weight 'x' at vertex 1"),
        ((1, 2.0), "non-integer weight 2.0 at vertex 1"),
        ((-1, 2), "negative weight -1 at vertex 0"),
        # a bool would be written as "True", which the parser rejects
        ((True, 1), "non-integer weight True at vertex 0"),
    ],
)
def test_write_rejects_weights_it_could_not_read_back(weights, message):
    with pytest.raises(ValueError, match=message):
        write_dimacs(path_graph(2), weights)


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
        ("p edge x 1\n", "line 1: non-integer header fields"),
        ("p edge -1 0\n", "line 1: negative counts in header"),
        ("p edge 2 1\ne 1 x\n", "line 2: non-integer vertex id 'x'"),
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


# `perfcode solve --force-path oracle` stdout (text, then --json) on the
# input of each pin above, recorded at commit 8969604, when the flag still
# went through solve
PINNED_ORACLE = {
    PINNED_C9_P5_K1: (
        "exists: yes\n"
        "set: 1 4 7 11 14 15\n"
        "weight: 18\n"
        "path: oracle\n"
        "square chordal: skipped\n"
        "square hole-free: skipped\n"
        "square odd-antihole-free: skipped\n",
        '{"exists": true, "set": [1, 4, 7, 11, 14, 15], "weight": 18, "path": "oracle", '
        '"diagnostics": null, "seed": null}\n',
    ),
    PINNED_C7_P3: (
        "exists: no\n"
        "set: -\n"
        "weight: -\n"
        "path: oracle\n"
        "square chordal: skipped\n"
        "square hole-free: skipped\n"
        "square odd-antihole-free: skipped\n",
        '{"exists": false, "set": null, "weight": null, "path": "oracle", '
        '"diagnostics": null, "seed": null}\n',
    ),
    PINNED_C6_P4_11K2: (
        "exists: yes\n"
        "set: 1 4 7 10 11 13 15 18 20 22 23 25 27 29 32\n"
        "weight: 41\n"
        "path: oracle\n"
        "square chordal: skipped\n"
        "square hole-free: skipped\n"
        "square odd-antihole-free: skipped\n",
        '{"exists": true, "set": [1, 4, 7, 10, 11, 13, 15, 18, 20, 22, 23, 25, 27, 29, 32], '
        '"weight": 41, "path": "oracle", "diagnostics": null, "seed": null}\n',
    ),
}


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
def test_cli_solve_disconnected_stdout_is_pinned(tmp_path, capsys, parts, code, expected):
    g = disjoint_union(*parts)
    path = tmp_path / "union.col"
    path.write_text(write_dimacs(g, tuple(3 * v % 7 + 1 for v in range(g.n))))
    assert main(["solve", str(path)]) == code
    assert capsys.readouterr().out == expected
    for flags, oracle_expected in zip(([], ["--json"]), PINNED_ORACLE[expected]):
        assert main(["solve", str(path), "--force-path", "oracle", *flags]) == code
        assert capsys.readouterr().out == oracle_expected


@pytest.mark.usefixtures("time_limit")
def test_cli_solve_long_cycle(tmp_path, capsys):
    # C_3000 with unit weights has three e.d.s of equal weight; every route
    # returns the lexicographically least, (0, 3, ..., 2997)
    path = tmp_path / "c3000.col"
    path.write_text(write_dimacs(cycle_graph(3000)))
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "exists: yes" in out and "path: exact-fallback" in out
    unit = [1] * 300
    assert solve(cycle_graph(300), unit).vertices == bf.least_ed_by_mwis(cycle_graph(300), unit)


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


def test_cli_warns_on_duplicate_edges(tmp_path):
    """A collapsed duplicate edge is reported on stderr and changes no answer.

    A fresh process has no logging configured, so the warning of the lazily
    imported logging reaches stderr through its last-resort handler.
    """
    plain = tmp_path / "p3.col"
    plain.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    doubled = tmp_path / "p3-doubled.col"
    doubled.write_text("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
    expected = run_from_checkout(["-m", "perfcode.cli", "solve", str(plain)])
    proc = run_from_checkout(["-m", "perfcode.cli", "solve", str(doubled)])
    assert b"collapsed 1 duplicate edge(s)" in proc.stderr
    assert b"duplicate" not in expected.stderr
    assert (proc.returncode, proc.stdout) == (expected.returncode, expected.stdout)
    assert expected.returncode == 0 and b"exists: yes" in expected.stdout


def test_cli_out_of_memory_exit_1(monkeypatch, p7_file, capsys):
    # a header such as "p edge 300000000 0" exhausts memory in from_edge_list
    import perfcode.cli as cli

    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_dimacs", exhausted)
    assert main(["solve", str(p7_file)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_cli_verify_budget_flag(capsys):
    args = ["verify-theorems", "--theorem", "T2", "--trials", "2", "--nmax", "12", "--json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["budget"] == 30
    assert main(args + ["--budget", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["budget"] == 12
    assert main(args + ["--budget", "11"]) == 2  # the n range exceeds the budget
    capsys.readouterr()


_ids = st.integers(-1, 10)
_bad_line = st.one_of(
    # no digits in the random text, so no header can ask for a large n
    st.text(alphabet="cepnx -.\t", max_size=8),
    st.sampled_from(["p edge 3", "p graph 3 0", "e 1", "e 1 2 3", "e a b", "n 1", "n 1 2 3"]),
    st.builds("p edge {} {}".format, st.integers(-1, 8), st.integers(-1, 20)),
    st.builds("e {} {}".format, _ids, _ids),
    st.builds("n {} {}".format, _ids, st.integers(-1, 9)),
)


@st.composite
def _dimacs_texts(draw):
    """A header and well-formed lines in range of it, at times with one bad line.

    Header n <= 8 and ids in -1..10, so every file is small to build.
    """
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    weights = draw(st.dictionaries(st.integers(1, n), st.integers(0, 9))) if n else {}
    body = [f"e {u} {v}" for u, v in edges] + [f"n {v} {w}" for v, w in weights.items()]
    body += draw(st.lists(st.builds("c {}".format, st.text(alphabet="abc xyz", max_size=6))))
    lines = [f"p edge {n} {draw(st.integers(0, 20))}"] + draw(st.permutations(body))
    if not draw(st.integers(0, 2)):
        lines.insert(draw(st.integers(0, len(lines))), draw(_bad_line))
    return "\n".join(lines) + "\n"


def _flag(name, values):
    """An optional command-line flag: nothing, or the flag and one value."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


_file_commands = st.one_of(
    st.tuples(
        st.just(["solve"]),
        _flag("--weights", st.sampled_from(["from-file", "unit"])),
        # only "oracle" is a choice: the others keep the usage error (exit 2) exercised
        _flag("--force-path", st.sampled_from(["chordal", "exact", "oracle"])),
        st.sampled_from([[], ["--json"]]),
    ),
    st.tuples(
        st.just(["check-class"]),
        st.sampled_from(CLASS_TAGS).map(lambda tag: ["--class", tag]),
        st.sampled_from([[], ["--json"]]),
    ),
    st.tuples(st.just(["square"])),
)
_verify_command = st.tuples(
    st.just(["verify-theorems"]),
    st.sampled_from(THEOREM_IDS).map(lambda t: ["--theorem", t]),
    _flag("--trials", st.integers(-1, 2)),
    _flag("--seed", st.integers(0, 5)),
    _flag("--nmin", st.integers(-1, 8)),
    _flag("--nmax", st.integers(-1, 8)),
    _flag("--pmin", st.sampled_from([-0.5, 0.0, 0.3, 1.0, 1.5])),
    _flag("--pmax", st.sampled_from([-0.5, 0.0, 0.7, 1.0, 1.5])),
    _flag("--exhaustive-n", st.integers(-1, 3)),
    _flag("--budget", st.integers(-1, 10)),
    st.sampled_from([[], ["--json"]]),
)


@given(text=_dimacs_texts(), command=st.one_of(_file_commands, _verify_command))
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_cli_exit_codes_on_generated_input(tmp_path, capsys, text, command):
    path = tmp_path / "g.col"
    path.write_text(text)
    argv = [token for part in command for token in part]
    if argv[0] != "verify-theorems":
        argv.insert(1, str(path))
    assert main(argv) in (0, 1, 2, 3, 4)
    capsys.readouterr()


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


def test_cli_force_path_chordal_is_a_usage_error(c6_file, capsys):
    # no route forces the greedy: `square chordal` in every output reports
    # whether it ran on every component
    assert main(["solve", str(c6_file), "--force-path", "chordal"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_force_path_exact_is_a_usage_error(c6_file, capsys):
    # each component's square picks its route; the oracle, which does not
    # use the square, is the one route the flag can force
    assert main(["solve", str(c6_file), "--force-path", "exact"]) == 2
    assert capsys.readouterr().out == ""


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
    # text mode prints the same 1-based record
    assert main(["verify-theorems", "--theorem", "T2", "--trials", "1"]) == 4
    text = capsys.readouterr().out
    assert "theorem T2: 1 counterexample(s)" in text
    assert "'edges': [[1, 2], [2, 3]], 'ed': [2], 'witness': ['C3', [1, 2, 3]]" in text

"""Command-line surface: round trips, exit codes, machine-readable errors."""
import json

import pytest

from kempe_edge.cli import main
from kempe_edge.fixtures_gen import random_proper_coloring
from kempe_edge.graph_core import (
    EdgeColoring,
    Graph,
    read_coloring,
    read_graph,
    write_coloring,
    write_graph,
)


@pytest.fixture()
def work(tmp_path):
    return tmp_path


def test_gen_verify_round_trip(work, capsys):
    graph = work / "oct.graph"
    first = work / "f.col"
    second = work / "g.col"
    assert main(["gen", "figure1", "--out", str(graph),
                 "--first", str(first), "--second", str(second)]) == 0
    assert main(["verify", "--graph", str(graph), "--coloring", str(first)]) == 0
    out = capsys.readouterr().out
    assert "proper" in out


def test_verify_rejects_improper(work):
    g = Graph(3, [(1, 2), (2, 3)])
    write_graph(work / "p.graph", g)
    write_coloring(work / "bad.col", g, EdgeColoring(2, [1, 1]))
    assert main(["verify", "--graph", str(work / "p.graph"),
                 "--coloring", str(work / "bad.col")]) == 1


def test_transform_apply_round_trip_bytes(work):
    graph = work / "oct.graph"
    main(["gen", "octahedron", "--out", str(graph)])
    g = read_graph(graph)
    f = random_proper_coloring(g, 5, 1)
    h = random_proper_coloring(g, 5, 2)
    write_coloring(work / "from.col", g, f)
    write_coloring(work / "to.col", g, h)
    assert main([
        "transform", "--graph", str(graph),
        "--from", str(work / "from.col"), "--to", str(work / "to.col"),
        "--out", str(work / "tr.txt"), "--mode", "auto",
    ]) == 0
    assert main([
        "apply", "--graph", str(graph), "--coloring", str(work / "from.col"),
        "--transcript", str(work / "tr.txt"), "--check",
        "--out", str(work / "result.col"),
    ]) == 0
    assert (work / "result.col").read_bytes() == (work / "to.col").read_bytes()


def test_transform_modes_vizing_acyclic(work):
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    write_graph(work / "star.graph", g)
    write_coloring(work / "f6.col", g, EdgeColoring(6, [1, 2, 3, 6]))
    assert main([
        "transform", "--graph", str(work / "star.graph"),
        "--from", str(work / "f6.col"), "--out", str(work / "tr.txt"),
        "--result", str(work / "reduced.col"), "--mode", "vizing",
    ]) == 0
    reduced = read_coloring(work / "reduced.col", g)
    assert reduced.t == 5
    write_coloring(work / "f5.col", g, EdgeColoring(5, [1, 2, 3, 5]))
    assert main([
        "transform", "--graph", str(work / "star.graph"),
        "--from", str(work / "f5.col"), "--out", str(work / "tr2.txt"),
        "--result", str(work / "r4.col"), "--mode", "acyclic",
    ]) == 0
    assert read_coloring(work / "r4.col", g).t == 4


@pytest.mark.parametrize("mode", ["vizing", "acyclic"])
def test_palette_modes_refuse_a_target(work, capsys, monkeypatch, mode):
    # vizing and acyclic only shrink the palette: --to is refused up front
    import kempe_edge.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("reduction ran")

    monkeypatch.setattr(cli, "reduce_to_delta_plus_one", refuse)
    monkeypatch.setattr(cli, "acyclic_reduce", refuse)
    graph = work / "oct.graph"
    main(["gen", "figure1", "--out", str(graph), "--first", str(work / "h.col")])
    g = read_graph(graph)
    write_coloring(work / "f6.col", g, random_proper_coloring(g, 6, 1))
    code = main([
        "transform", "--graph", str(graph),
        "--from", str(work / "f6.col"), "--to", str(work / "h.col"),
        "--out", str(work / "tr.txt"), "--mode", mode,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err)["error"] == "unsupported_family"
    assert not (work / "tr.txt").exists()


def test_unsupported_family_error_line(work, capsys):
    k6 = Graph(6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)])
    write_graph(work / "k6.graph", k6)
    write_coloring(work / "f.col", k6, random_proper_coloring(k6, 6, 1))
    write_coloring(work / "h.col", k6, random_proper_coloring(k6, 6, 2))
    code = main([
        "transform", "--graph", str(work / "k6.graph"),
        "--from", str(work / "f.col"), "--to", str(work / "h.col"),
        "--out", str(work / "tr.txt"), "--mode", "auto",
    ])
    assert code == 1
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert payload["error"] == "unsupported_family"


def test_oracle_subcommands(work, capsys):
    graph = work / "oct.graph"
    first = work / "f.col"
    second = work / "g.col"
    main(["gen", "figure1", "--out", str(graph),
          "--first", str(first), "--second", str(second)])
    assert main(["oracle", "chi", "--graph", str(graph)]) == 0
    assert "chi 4" in capsys.readouterr().out
    assert main(["oracle", "classes", "--graph", str(graph), "--colors", "4"]) == 0
    out = capsys.readouterr().out
    assert "classes 2" in out
    assert "truncated" not in out
    assert main(["oracle", "same-class", "--graph", str(graph), "--colors", "4",
                 "--first", str(first), "--second", str(second)]) == 1
    assert "different-class" in capsys.readouterr().out


def test_gen_regular4_requires_seed(work, capsys):
    code = main(["gen", "regular4", "--out", str(work / "g.graph"), "--n", "8"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "unsupported_family"
    assert main(["gen", "regular4", "--out", str(work / "g.graph"),
                 "--n", "8", "--seed", "3",
                 "--witness", str(work / "w.col")]) == 0
    g = read_graph(work / "g.graph")
    w = read_coloring(work / "w.col", g)
    assert w.t == 4


def test_bad_format_reports_error(work, capsys):
    (work / "bad.graph").write_text("p edge 2\n")
    code = main(["oracle", "chi", "--graph", str(work / "bad.graph")])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "bad_format"


def test_transform_regular4_result_matches_target_bytes(work):
    from kempe_edge.fixtures_gen import random_regular4_class1

    g, h = random_regular4_class1(8, 4)
    write_graph(work / "g.graph", g)
    write_coloring(work / "h4.col", g, h)
    write_coloring(work / "f5.col", g, random_proper_coloring(g, 5, 6))
    assert main([
        "transform", "--graph", str(work / "g.graph"),
        "--from", str(work / "f5.col"), "--to", str(work / "h4.col"),
        "--out", str(work / "tr.txt"), "--result", str(work / "res.col"),
        "--mode", "regular4",
    ]) == 0
    assert (work / "res.col").read_bytes() == (work / "h4.col").read_bytes()


def test_non_integer_fields_report_bad_format(work, capsys):
    g = Graph(3, [(1, 2), (2, 3)])
    write_graph(work / "p.graph", g)
    write_coloring(work / "p.col", g, EdgeColoring(2, [1, 2]))
    cases = [
        ("oracle", "chi", "--graph", "p edge 3 x\n"),
        ("oracle", "chi", "--graph", "p edge 3 1\ne 1 y\n"),
        ("verify", "--graph", str(work / "p.graph"), "--coloring",
         "t 2\ne 1 2 z\ne 2 3 2\n"),
        ("apply", "--graph", str(work / "p.graph"), "--coloring", str(work / "p.col"),
         "--transcript", "K 1 2 x 2\n"),
    ]
    for *argv, text in cases:
        (work / "bad.txt").write_text(text)
        assert main([*argv, str(work / "bad.txt")]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "bad_format"
        assert "line" in payload["detail"]


def test_off_target_transform_is_internal_invariant(work, capsys, monkeypatch):
    import kempe_edge.cli as cli
    from kempe_edge.fixtures_gen import random_regular4_class1
    from kempe_edge.kempe_engine import Transcript

    real = cli.theorem_4_1_transform
    monkeypatch.setattr(
        cli, "theorem_4_1_transform",
        lambda g, f, h: Transcript(real(g, f, h).moves[:-1]),
    )
    g, h = random_regular4_class1(8, 4)
    write_graph(work / "g.graph", g)
    write_coloring(work / "h4.col", g, h)
    write_coloring(work / "f5.col", g, random_proper_coloring(g, 5, 6))
    code = main([
        "transform", "--graph", str(work / "g.graph"),
        "--from", str(work / "f5.col"), "--to", str(work / "h4.col"),
        "--out", str(work / "tr.txt"), "--mode", "regular4",
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "internal_invariant"
    assert not (work / "tr.txt").exists()  # no off-target transcript emitted


def test_palette_above_byte_range_reports_error_line(work, capsys):
    g = Graph(3, [(1, 2), (2, 3)])
    write_graph(work / "p.graph", g)
    (work / "wide.col").write_text("t 300\ne 1 2 256\ne 2 3 1\n")
    code = main(["verify", "--graph", str(work / "p.graph"),
                 "--coloring", str(work / "wide.col")])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "color_out_of_range"


def test_transform_auto_petersen_at_palette_four(work):
    # Class 2 cubic graph at palette Delta+1 = chi': the low-degree path
    # needs no chromatic index and no palette chi'+1
    from kempe_edge.fixtures_gen import petersen

    g = petersen()
    write_graph(work / "p.graph", g)
    write_coloring(work / "f.col", g, random_proper_coloring(g, 4, 1))
    write_coloring(work / "h.col", g, random_proper_coloring(g, 4, 2))
    assert main([
        "transform", "--graph", str(work / "p.graph"),
        "--from", str(work / "f.col"), "--to", str(work / "h.col"),
        "--out", str(work / "tr.txt"), "--result", str(work / "out.col"),
        "--mode", "auto",
    ]) == 0
    assert (work / "out.col").read_bytes() == (work / "h.col").read_bytes()


def test_unreadable_files_report_one_error_line(work, capsys):
    """Bytes that are not UTF-8, a missing input and an unwritable output
    each end in one JSON error line and exit 1, with no traceback."""
    g = Graph(3, [(1, 2), (2, 3)])
    write_graph(work / "p.graph", g)
    write_coloring(work / "p.col", g, EdgeColoring(2, [1, 2]))
    (work / "bin.graph").write_bytes(b"p edge 3 2\n\xff\n")
    runs = [
        (["verify", "--graph", str(work / "bin.graph"),
          "--coloring", str(work / "p.col")], "bad_format"),
        (["verify", "--graph", str(work / "missing.graph"),
          "--coloring", str(work / "p.col")], "io_error"),
        (["gen", "octahedron", "--out", str(work / "no-dir" / "o.graph")], "io_error"),
    ]
    for argv, code in runs:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["error"] == code

"""Command-line surface: round trips, exit codes, machine-readable errors."""
import json

import pytest

from kempe_edge.cli import main
from kempe_edge.fixtures_gen import overfull_delta5, random_proper_coloring
from kempe_edge.graph_core import (
    EdgeColoring,
    Graph,
    format_graph,
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
        "--transcript", str(work / "tr.txt"),
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


@pytest.mark.parametrize("mode", ["regular4", "delta4"])
def test_transform_modes_are_auto_vizing_acyclic(work, capsys, mode):
    # auto already runs transform_delta4 (and so Theorem 4.1) on every input
    # these two modes took, so they are usage errors
    assert main(["transform", "--graph", str(work / "g.graph"), "--from", str(work / "f.col"),
                 "--to", str(work / "h.col"), "--out", str(work / "tr.txt"),
                 "--mode", mode]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage_error"
    assert not (work / "tr.txt").exists()


@pytest.mark.parametrize("argv", [["--help"], ["apply", "--help"], ["oracle", "chi", "-h"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: kempe-edge") and captured.err == ""


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


def test_apply_rejects_a_move_outside_the_palette(work, capsys):
    graph, first = work / "g.graph", work / "f.col"
    assert main(["gen", "figure1", "--out", str(graph), "--first", str(first),
                 "--second", str(work / "h.col")]) == 0
    (work / "tr.txt").write_text("K 9 1 1 2\n")
    capsys.readouterr()
    assert main(["apply", "--graph", str(graph), "--coloring", str(first),
                 "--transcript", str(work / "tr.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "invalid_move"
    assert payload["detail"] == "move 0: colors (9,1) outside palette"


def _bounded_component_edges(g, colors, a, b, e0, limit=10_000):
    """The kernel's component walk, raising RuntimeError past `limit`
    edges: on an improper coloring the walk need not end."""
    c0 = colors[e0]
    other = b if c0 == a else a
    out = [e0]
    for v in reversed(g.edges[e0]):
        want = other
        while True:
            for w, e in g.adj[v]:
                if colors[e] == want:
                    break
            else:
                break
            if e == e0:
                return out
            out.append(e)
            if len(out) > limit:
                raise RuntimeError(f"component walk passed {limit} edges")
            v = w
            want = c0 if want == other else other
    return out


def test_apply_rejects_the_first_clash_of_a_faulty_kernel(work, capsys, monkeypatch):
    """A kernel that drops an edge of move 0's component leaves two
    1-colored edges at vertex 2.  apply rejects that move; walking on, move
    1's (1, 2)-walk would never end on the improper coloring."""
    from kempe_edge.errors import PreconditionViolated
    from kempe_edge.kempe_engine import apply_transcript, read_transcript
    from kempe_edge.kernels import backend

    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
    f = EdgeColoring(3, [1, 2, 1, 2, 3])
    write_graph(work / "g.graph", g)
    write_coloring(work / "f.col", g, f)
    (work / "tr.txt").write_text("K 1 3 2 5\nK 1 2 1 2\n")
    real = backend.component_edges
    calls = []

    def faulty(g, colors, a, b, e0):
        calls.append(e0)
        if len(calls) == 1:
            return real(g, colors, a, b, e0)[:-1]
        return _bounded_component_edges(g, colors, a, b, e0)

    monkeypatch.setattr(backend, "component_edges", faulty)
    assert main(["apply", "--graph", str(work / "g.graph"), "--coloring", str(work / "f.col"),
                 "--transcript", str(work / "tr.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "invalid_move",
        "detail": "move 0: intermediate coloring not proper at vertex 2: "
                  "color 1 on edges 0 and 4",
    }
    assert calls == [4]
    tr = read_transcript(work / "tr.txt", g)
    with pytest.raises(PreconditionViolated, match="check must be True"):
        apply_transcript(g, f, tr, check=False)


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


def test_oracle_chi_on_a_cycle_longer_than_the_recursion_limit(work, capsys):
    n = 1200
    write_graph(work / "c.graph", Graph(n, [(v, v + 1) for v in range(1, n)] + [(1, n)]))
    assert main(["oracle", "chi", "--graph", str(work / "c.graph")]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "chi 2"
    assert captured.err == ""


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


def _regular4_transform_args(work):
    """The files of a 4-regular graph, a 5-coloring and a 4-coloring target,
    and the transform command line between them."""
    from kempe_edge.fixtures_gen import random_regular4_class1

    g, h = random_regular4_class1(8, 4)
    write_graph(work / "g.graph", g)
    write_coloring(work / "h4.col", g, h)
    write_coloring(work / "f5.col", g, random_proper_coloring(g, 5, 6))
    return [
        "transform", "--graph", str(work / "g.graph"),
        "--from", str(work / "f5.col"), "--to", str(work / "h4.col"),
        "--out", str(work / "tr.txt"),
    ]


def test_transform_regular4_result_matches_target_bytes(work):
    argv = _regular4_transform_args(work)
    assert main([*argv, "--result", str(work / "res.col")]) == 0
    assert (work / "res.col").read_bytes() == (work / "h4.col").read_bytes()


def test_delta4_transform_replays_its_transcript_once(work, monkeypatch):
    """transform_delta4 replays its transcript onto the target itself, so
    the CLI writes the target without a second replay."""
    from kempe_edge import degree4_lift, kempe_engine
    from kempe_edge.kempe_engine import read_transcript

    real = kempe_engine._replay
    calls = []

    def replay(*args):
        calls.append(len(args[3]))
        return real(*args)

    monkeypatch.setattr(kempe_engine, "_replay", replay)
    monkeypatch.setattr(degree4_lift, "_replay", replay)
    argv = _regular4_transform_args(work)
    assert main([*argv, "--result", str(work / "res.col")]) == 0
    assert (work / "res.col").read_bytes() == (work / "h4.col").read_bytes()
    g = read_graph(work / "g.graph")
    assert calls == [len(read_transcript(work / "tr.txt", g))]


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
    # transform_delta4 imports the case machine at call time
    import kempe_edge.regular4_core as regular4_core
    from kempe_edge.kempe_engine import Transcript

    real = regular4_core.theorem_4_1_transform
    monkeypatch.setattr(
        regular4_core, "theorem_4_1_transform",
        lambda g, f, h: Transcript(real(g, f, h).moves[:-1]),
    )
    assert main(_regular4_transform_args(work)) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "internal_invariant"
    assert "terminated off target" in payload["detail"]
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


_P3 = "p edge 3 2\ne 1 2\ne 2 3\n"
_P3_F = "t 2\ne 1 2 1\ne 2 3 2\n"
_P3_H = "t 2\ne 1 2 2\ne 2 3 1\n"


# argv over the files g (the path P3), f and h (its two 2-colorings), x
# (holding the row's text) and o (an output); then the exit code, and the
# error code on exit 1, or the stdout and the text of o on exit 0
_CLI_TABLE = {
    "graph-duplicate-header": ("verify --graph {x} --coloring {f}",
                               "p edge 3 2\np edge 3 2\ne 1 2\ne 2 3\n", 1, "bad_format"),
    "graph-edge-arity": ("verify --graph {x} --coloring {f}",
                         "p edge 3 2\ne 1 2 3\ne 2 3\n", 1, "bad_format"),
    "graph-edge-before-header": ("verify --graph {x} --coloring {f}",
                                 "e 1 2\np edge 3 2\ne 2 3\n", 1, "bad_format"),
    "graph-unknown-record": ("verify --graph {x} --coloring {f}",
                             "p edge 3 2\nx 1 2\ne 2 3\n", 1, "bad_format"),
    "graph-c-word-record": ("verify --graph {x} --coloring {f}",
                            "p edge 3 2\ne 1 2\ncolor 2 3\ne 2 3\n", 1, "bad_format"),
    "graph-missing-header": ("verify --graph {x} --coloring {f}",
                             "c no header\n", 1, "bad_format"),
    "graph-vertex-out-of-range": ("verify --graph {x} --coloring {f}",
                                  "p edge 3 2\ne 1 2\ne 2 9\n", 1, "bad_format"),
    "graph-negative-vertex-count": ("verify --graph {x} --coloring {f}",
                                    "p edge -1 0\n", 1, "bad_format"),
    "coloring-duplicate-header": ("verify --graph {g} --coloring {x}",
                                  "t 2\nt 2\ne 1 2 1\ne 2 3 2\n", 1, "bad_format"),
    "coloring-header-arity": ("verify --graph {g} --coloring {x}",
                              "t 2 3\ne 1 2 1\ne 2 3 2\n", 1, "bad_format"),
    "coloring-edge-before-header": ("verify --graph {g} --coloring {x}",
                                    "e 1 2 1\nt 2\ne 2 3 2\n", 1, "bad_format"),
    "coloring-edge-arity": ("verify --graph {g} --coloring {x}",
                            "t 2\ne 1 2\ne 2 3 2\n", 1, "bad_format"),
    "coloring-non-edge": ("verify --graph {g} --coloring {x}",
                          "t 2\ne 1 3 1\ne 1 2 1\ne 2 3 2\n", 1, "bad_format"),
    "coloring-unknown-record": ("verify --graph {g} --coloring {x}",
                                "t 2\nx 1 2 1\ne 1 2 1\ne 2 3 2\n", 1, "bad_format"),
    "coloring-c-word-record": ("verify --graph {g} --coloring {x}",
                               "t 2\ncheck me\ne 1 2 1\ne 2 3 2\n", 1, "bad_format"),
    "coloring-missing-header": ("verify --graph {g} --coloring {x}",
                                "\n", 1, "bad_format"),
    "coloring-comment": ("verify --graph {g} --coloring {x}",
                         "c a comment\n" + _P3_F, 0, ("proper\n", None)),
    "transcript-non-edge": ("apply --graph {g} --coloring {f} --transcript {x}",
                            "K 1 2 1 3\n", 1, "bad_format"),
    "transcript-equal-colors": ("apply --graph {g} --coloring {f} --transcript {x}",
                                "K 1 1 1 2\n", 1, "equal_colors"),
    "apply-to-stdout": ("apply --graph {g} --coloring {f} --transcript {x}",
                        "K 1 2 1 2\n", 0, (_P3_H, None)),
    # every replay is checked: apply has no --check option
    "apply-check-option": ("apply --graph {g} --coloring {f} --transcript {x} --check",
                           "K 1 2 1 2\n", 1, "usage_error"),
    "same-class-out": ("oracle same-class --graph {g} --colors 2 --first {f} "
                       "--second {h} --out {o}", "", 0, ("same-class\n", "K 1 2 1 2\n")),
    # a state budget below 1 is refused before any search
    "same-class-cap-below-one": ("oracle same-class --graph {g} --colors 2 --first {f} "
                                 "--second {h} --cap -1", "", 1, "precondition_violated"),
    "same-class-cap-below-one-f-is-h": ("oracle same-class --graph {g} --colors 2 --first {f} "
                                        "--second {f} --cap 0", "", 1, "precondition_violated"),
    # t 4 colorings that use color 4, read at palette 3: refused before any
    # search, also when f = h
    "same-class-colors-above-palette": ("oracle same-class --graph {g} --colors 3 --first {x} "
                                        "--second {x}", "t 4\ne 1 2 3\ne 2 3 4\n", 1,
                                        "color_out_of_range"),
    "classes-cap-below-one": ("oracle classes --graph {g} --colors 2 --cap -1",
                              "", 1, "precondition_violated"),
    "classes-colors-zero": ("oracle classes --graph {g} --colors 0", "", 1, "color_out_of_range"),
    # an edgeless graph has chromatic index 0 and the empty coloring at palette 1
    "chi-edgeless": ("oracle chi --graph {x}", "p edge 3 0\n", 0, ("chi 0\nt 1\n", None)),
    "gen-overfull5": ("gen overfull5 --out {o}", "", 0, ("", format_graph(overfull_delta5()))),
    # one vertex past the most a graph file may declare (MAX_VERTICES = 2^20)
    "gen-regular4-above-max-vertices": ("gen regular4 --n 2097152 --seed 1 --out {o}",
                                        "", 1, "infeasible_n"),
    # gen refuses an option its family does not read, before writing
    "gen-regular4-first": ("gen regular4 --n 10 --seed 1 --out {o} --first {x}",
                           "", 1, "unsupported_family"),
    "gen-regular4-second": ("gen regular4 --n 10 --seed 1 --out {o} --second {x}",
                            "", 1, "unsupported_family"),
    "gen-figure1-witness": ("gen figure1 --out {o} --witness {x}", "", 1, "unsupported_family"),
    "gen-figure1-n": ("gen figure1 --out {o} --n 10", "", 1, "unsupported_family"),
    "gen-octahedron-seed": ("gen octahedron --out {o} --seed 1", "", 1, "unsupported_family"),
    "gen-octahedron-first": ("gen octahedron --out {o} --first {x}",
                             "", 1, "unsupported_family"),
    "gen-overfull5-witness": ("gen overfull5 --out {o} --witness {x}",
                              "", 1, "unsupported_family"),
    "gen-overfull5-n-seed": ("gen overfull5 --out {o} --n 10 --seed 1",
                             "", 1, "unsupported_family"),
    "transform-auto-needs-to": ("transform --graph {g} --from {f} --out {o}",
                                "", 1, "unsupported_family"),
    # a command line that does not parse: one JSON line, exit 1, no usage text
    "usage-no-command": ("", "", 1, "usage_error"),
    "usage-unknown-command": ("draw --graph {g}", "", 1, "usage_error"),
    "usage-missing-required": ("apply --graph {x}", "", 1, "usage_error"),
    "usage-unknown-option": ("verify --graph {g} --coloring {f} --out {o}",
                             "", 1, "usage_error"),
    "usage-bad-int": ("oracle classes --graph {g} --colors five", "", 1, "usage_error"),
    "usage-bad-choice": ("transform --graph {g} --from {f} --to {h} --out {o} --mode tower",
                         "", 1, "usage_error"),
    "usage-oracle-no-subcommand": ("oracle --graph {g}", "", 1, "usage_error"),
}


@pytest.mark.parametrize("case", sorted(_CLI_TABLE))
def test_cli_table(work, capsys, case):
    argv, text, code, want = _CLI_TABLE[case]
    files = {"g": _P3, "f": _P3_F, "h": _P3_H, "x": text}
    for name, body in files.items():
        (work / name).write_text(body)
    paths = {name: str(work / name) for name in (*files, "o")}
    assert main([arg.format(**paths) for arg in argv.split()]) == code
    captured = capsys.readouterr()
    if code == 1:
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert json.loads(lines[0])["error"] == want
        assert captured.out == ""
        assert not (work / "o").exists()
    else:
        out, written = want
        assert (captured.out, captured.err) == (out, "")
        assert (work / "o").exists() == (written is not None)
        if written is not None:
            assert (work / "o").read_text() == written


@pytest.mark.parametrize("mode", ["vizing", "acyclic"])
def test_improper_reduction_result_is_internal_invariant(work, capsys, monkeypatch, mode):
    # the reductions check their input first, so an improper final coloring
    # is the package's fault: internal_invariant, not the caller's not_proper
    import importlib

    # the package re-exports the functions under their modules' names
    acyclic = importlib.import_module("kempe_edge.acyclic_reduce")
    vizing = importlib.import_module("kempe_edge.vizing_reduce")

    def clash(rec, *args):
        # recolor every top-colored edge to 1, which an adjacent edge has
        top = max(rec.colors)
        rec.colors[:] = [1 if c == top else c for c in rec.colors]

    monkeypatch.setattr(vizing, "eliminate_via_fan", clash)
    monkeypatch.setattr(vizing, "_check_left_top_color", lambda *args: None)
    monkeypatch.setattr(acyclic, "_round", clash)
    star = Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    write_graph(work / "star.graph", star)
    t = 6 if mode == "vizing" else 5
    write_coloring(work / "f.col", star, EdgeColoring(t, [1, 2, 3, t]))
    code = main(["transform", "--graph", str(work / "star.graph"),
                 "--from", str(work / "f.col"), "--out", str(work / "tr.txt"),
                 "--mode", mode])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "internal_invariant"
    assert not (work / "tr.txt").exists()

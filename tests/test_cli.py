import os
import pathlib
import shlex
import subprocess
import sys
from time import perf_counter

import pytest

import vertexmagic
from vertexmagic import abelian, cli, graphs
from vertexmagic.cli import main


def test_group_list(capsys):
    assert main(["group", "list", "--max-order", "6"]) == 0
    out = capsys.readouterr().out
    assert "Z2+Z2" in out and "Z6" in out


def test_group_info(capsys):
    assert main(["group", "info", "V4"]) == 0
    out = capsys.readouterr().out
    assert "order: 4" in out and "squares: none" in out


def test_group_info_refuses_groups_past_the_bound(monkeypatch, capsys):
    """Listing involutions and squares enumerates the group, so an order
    past the bound is refused with one error line before any element is
    built."""

    def refuse(spec):
        raise AssertionError(f"enumerated {spec}")

    monkeypatch.setattr(abelian, "_elements_of", refuse)
    bound = abelian.LITERAL_TABLE_MAX_ORDER
    assert main(["group", "info", f"Z{bound + 1}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bound) in err
    monkeypatch.undo()
    assert main(["group", "info", f"Z{bound}"]) == 0
    assert f"order: {bound}" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["predict", "C5", "--group", "Z{order}"],
    ["group", "list", "--max-order", "{order}"],
    ["crosscheck", "--max-order", "{order}"],
], ids=["predict", "group-list", "crosscheck"])
def test_group_orders_past_the_bound_are_refused(command, monkeypatch, capsys):
    """predict builds every element of its group, and group list and
    crosscheck go through every group up to their order: past the bound
    each exits 2 with one error line before any of that work starts."""

    def refuse(*args):
        raise AssertionError(f"ran past the bound: {args}")

    monkeypatch.setattr(abelian, "_elements_of", refuse)
    monkeypatch.setattr(cli, "enumerate_abelian_groups", refuse)
    monkeypatch.setattr(cli, "standard_catalog", refuse)
    bound = abelian.LITERAL_TABLE_MAX_ORDER
    assert main([a.format(order=bound + 1) for a in command]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bound) in err and str(bound + 1) in err


def test_group_orders_at_the_bound_are_served(capsys):
    bound = abelian.LITERAL_TABLE_MAX_ORDER
    assert main(["predict", "C5", "--group", f"Z{bound}", "--construct"]) == 0
    assert "construction:" in capsys.readouterr().out
    assert main(["group", "list", "--max-order", str(bound)]) == 0
    assert f"Z{bound}" in capsys.readouterr().out.split()


def test_family_build_and_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["family", "build", "M11(0,0)", "--dot", str(dot)]) == 0
    assert "n=7 m=8" in capsys.readouterr().out
    assert dot.read_text().startswith("graph ")


def test_family_list(capsys):
    assert main(["family", "list"]) == 0
    assert "B3-M11" in capsys.readouterr().out


def test_verify_labels(capsys):
    rc = main(["verify", "C4", "--group", "Z3",
               "--labels", "v0=1,v1=1,v2=1,v3=1"])
    assert rc == 0
    assert "mu=2" in capsys.readouterr().out


def test_verify_over_a_large_group_returns_promptly(monkeypatch, capsys):
    """Parsing and checking a labeling work on residues, so a group of
    order about 10^9 costs no more than Z3; its elements are never listed."""

    def refuse(spec):
        raise AssertionError(f"enumerated {spec}")

    monkeypatch.setattr(abelian, "_elements_of", refuse)
    t0 = perf_counter()
    rc = main(["verify", "C3", "--group", "Z1000000007",
               "--labels", "v0=1,v1=1,v2=1", "--weights"])
    assert perf_counter() - t0 < 5.0
    assert rc == 0
    out = capsys.readouterr().out
    assert "mu=2" in out and "w(v2) = 2" in out


def test_verify_not_magic(capsys):
    rc = main(["verify", "C4", "--group", "Z3",
               "--labels", "v0=1,v1=1,v2=1,v3=2"])
    assert rc == 0
    assert "not magic" in capsys.readouterr().out


def test_verify_weights_shown_when_not_magic(capsys):
    rc = main(["verify", "C4", "--group", "Z3",
               "--labels", "v0=1,v1=1,v2=1,v3=2", "--weights"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "not magic: induced weights differ\n"
        "  w(v0) = 0\n"
        "  w(v1) = 2\n"
        "  w(v2) = 0\n"
        "  w(v3) = 2\n"
    )


def test_verify_weights_shown_when_magic(capsys):
    rc = main(["verify", "C4", "--group", "Z2+Z2",
               "--labels", "v0=(1,0),v1=(0,1),v2=(1,0),v3=(0,1)", "--weights"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "magic: mu=(0,0)\n"
        "  w(v0) = (0,0)\n"
        "  w(v1) = (0,0)\n"
        "  w(v2) = (0,0)\n"
        "  w(v3) = (0,0)\n"
    )


def test_solve_and_count(capsys):
    assert main(["solve", "M11(0,0)", "--group", "Z4"]) == 0
    assert "witness" in capsys.readouterr().out
    assert main(["solve", "C4", "--group", "Z3", "--count"]) == 0
    assert "labelings: 6" in capsys.readouterr().out


def test_solve_graph_file(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
    assert main(["solve", str(path), "--group", "Z2"]) == 0
    assert "witness" in capsys.readouterr().out


def test_predict(capsys):
    assert main(["predict", "G2(1,0)", "--group", "Z4", "--construct"]) == 0
    out = capsys.readouterr().out
    assert "magic [Prop3.2]" in out and "construction:" in out


@pytest.mark.parametrize("instance", ["G2(1)", "C2", "M11(1)"])
def test_predict_refuses_unbuildable_instance(capsys, instance):
    """Wrong arity or a 2-cycle: one error line, never a verdict."""
    assert main(["predict", instance, "--group", "Z3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify(capsys):
    assert main(["classify", "M11(0,0)"]) == 0
    assert "yes [Thm4.15]" in capsys.readouterr().out


def test_usage_errors():
    assert main(["group", "info", "Q8"]) == 2
    assert main(["solve", "nosuchfile.txt", "--group", "Z4"]) == 2
    assert main(["family", "build", "G2(0,1)"]) == 2


def test_audit_cli(capsys):
    assert main(["audit", "--nmax", "8"]) == 0
    assert "unrecognized: none" in capsys.readouterr().out


@pytest.mark.parametrize("nmax", ["0", "-5", "3"])
def test_audit_refuses_a_scope_without_graphs(nmax, capsys):
    # below 3 vertices no unicyclic graph exists, below 4 no bicyclic one
    assert main(["audit", "--nmax", nmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_audit_smallest_scope(capsys):
    assert main(["audit", "--nmax", "4"]) == 0
    assert "unrecognized: none" in capsys.readouterr().out


def test_count_beyond_bound_exits_cleanly(capsys):
    assert main(["solve", "C4", "--group", "Z7", "--count"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "counting bound" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_solve_beyond_bound_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "p14.txt"
    path.write_text("14\n" + "".join(f"{i} {i + 1}\n" for i in range(13)))
    assert main(["solve", str(path), "--group", "Z3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "solver bound" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["family", "build", "C{over}"],
    ["solve", "M11({over},0)", "--group", "Z2"],
    ["predict", "GENSUN(1,0,{over})", "--group", "Z3"],
    ["classify", "H2(1,1,1;hub=[{over}])"],
    ["solve", "{path}", "--group", "Z2"],
], ids=["cycle", "family", "gensun", "hub", "graph-file"])
def test_inputs_past_the_vertex_bound_exit_cleanly(argv, tmp_path, capsys):
    """Instance literals and graph files with more than INPUT_MAX_N
    vertices exit 2 with one error line, before anything is built."""
    bound = graphs.INPUT_MAX_N
    path = tmp_path / "path.txt"
    path.write_text(f"{bound + 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(bound)))
    assert main([a.format(over=bound + 1, path=path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"input bound {bound}" in err


@pytest.mark.parametrize("argv", [
    ["classify", "{tmp}"],
    ["solve", "{latin1}", "--group", "Z3"],
    ["crosscheck", "--max-order", "2", "--out", "{missing}/records.jsonl"],
    ["audit", "--nmax", "4", "--out", "{missing}/audit.txt"],
    ["family", "build", "C4", "--dot", "{missing}/c4.dot"],
], ids=["directory", "not-utf8", "crosscheck-out", "audit-out", "dot"])
def test_file_errors_exit_cleanly(argv, tmp_path, capsys):
    """A file that cannot be read or written exits 2 with one error line,
    never a traceback."""
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"3\n0 1\n1 2\n# \xe9\n")
    paths = {"tmp": tmp_path, "latin1": latin1, "missing": tmp_path / "missing"}
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


def test_solve_beyond_group_order_bound_exits_cleanly(capsys):
    assert main(["solve", "C4", "--group", "Z512"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "|A| = 512 exceeds the solver bound" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "{graph}", "--group", "Z3"],
    ["solve", "M11(a,0)", "--group", "Z3"],
    ["verify", "C3", "--group", "Z3", "--labels", "v0=x,v1=1,v2=1"],
    ["verify", "C4", "--group", "Z4", "--labels", "v0=1,v1=1,v2=1,v3=1,v0=3"],
    ["verify", "C3", "--group", "Z3", "--labels", "v+0=1,v1=1,v2=1"],
], ids=["graph-file-edge", "instance-param", "label-element", "label-named-twice",
        "label-bad-name"])
def test_malformed_number_exits_cleanly(argv, tmp_path, capsys):
    graph = tmp_path / "bad.txt"
    graph.write_text("3\n0 1\n1 x\n")
    assert main([a.format(graph=graph) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


def test_cli_imports_without_numpy():
    """No command calls the enumeration oracle, so `vmagic` leaves numpy
    (about half of its import time) unloaded."""
    src = str(pathlib.Path(vertexmagic.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = "import sys, vertexmagic.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def _tour_commands() -> list[list[str]]:
    """The `vmagic` lines of the sh block under README's "Command-line
    tour" heading, split as sh splits them, comments dropped."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Command-line tour", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(ln, comments=True) for ln in lines
            if ln.startswith("vmagic ")]


@pytest.mark.parametrize("argv", _tour_commands(), ids=" ".join)
def test_readme_tour_command_runs(argv, tmp_path, monkeypatch, capsys):
    """Every documented command exits 0, so a renamed flag or a changed
    bound fails here and not in a reader's shell."""
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0, capsys.readouterr().err


def test_readme_tour_is_found():
    # an empty parameter list would only skip the test above
    assert len(_tour_commands()) >= 10

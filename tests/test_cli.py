import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from jsjforge import gog as G
from jsjforge.cli import _geometry, main
from jsjforge.words import Presentation, parse_presentation

from test_gog import _g2_seeds, _star


@pytest.fixture()
def g2_file(tmp_path):
    path = tmp_path / "g2.grp"
    path.write_text("gen a b c d\nrel abABcdCD\n")
    return str(path)


@pytest.fixture()
def seeds_file(tmp_path):
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(_g2_seeds()))
    return str(path)


@pytest.fixture()
def star_file(tmp_path):
    path = tmp_path / "star.gog"
    path.write_text(_star(2).to_json())
    return str(path)


def test_split_cyclic_no_splits(tmp_path, capsys):
    path = tmp_path / "z.grp"
    path.write_text("gen a\n")
    rc = main(["split", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "answer: no-splits" in out
    assert "trace: Start -> VC?yes" in out


def test_split_exhausted_exit_code(g2_file, capsys):
    # with any budget the split search finds genus 2's HNN splitting
    rc = main(["split", g2_file, "--budget", "0"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "answer: exhausted" in out


def test_split_seeded_witness(g2_file, seeds_file, capsys):
    rc = main(["split", g2_file, "--seed-markings", seeds_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "answer: splits" in out
    assert "seed:witness-verified" in out


def test_jsj_vc_golden(g2_file, seeds_file, tmp_path, capsys):
    dot = tmp_path / "out.dot"
    rc = main(["jsj", g2_file, "--flavor", "vc",
               "--seed-markings", seeds_file, "--dot", str(dot)])
    out = capsys.readouterr().out
    assert rc == 0
    g = G.GraphOfGroups.from_json(out)
    assert len(g.vertices) == 1 and len(g.edges) == 0
    assert dot.read_text().startswith("graph gog {")


def test_maximal_writes_json_and_log(g2_file, seeds_file, capsys):
    rc = main(["maximal", g2_file, "--seed-markings", seeds_file])
    captured = capsys.readouterr()
    assert rc == 0
    g = G.GraphOfGroups.from_json(captured.out)
    assert len(g.edges) == 3
    assert "# v" in captured.err


def test_gog_trace_ok(star_file, capsys):
    rc = main(["gog", "trace", star_file])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_gog_trace_diagnoses(tmp_path, capsys):
    g = _star(1)
    e = g.edges[0]
    g.edges[0] = G.GoGEdge(e.source, e.target, e.presentation,
                           ((7,),), e.inj_target)
    path = tmp_path / "bad.gog"
    path.write_text(g.to_json())
    rc = main(["gog", "trace", str(path)])
    assert rc == 3
    assert "edge 0" in capsys.readouterr().out


def test_gog_collapse_edges_flag(star_file, capsys):
    rc = main(["gog", "collapse", star_file, "--edges", "0,1"])
    assert rc == 0
    g = G.GraphOfGroups.from_json(capsys.readouterr().out)
    assert len(g.vertices) == 1 and len(g.edges) == 0


def test_gog_cylinders(star_file, capsys):
    rc = main(["gog", "cylinders", star_file])
    assert rc == 0
    g = G.GraphOfGroups.from_json(capsys.readouterr().out)
    assert any(v.marking == "vc" for v in g.vertices.values())


def test_gog_fold(tmp_path, capsys):
    g = G.GraphOfGroups()
    v = g.add_vertex(Presentation(("g", "r"), (), ()))
    g.add_edge(v, v, Presentation(("e",), (), ()), ((1,),), ((2, 2, 2),))
    path = tmp_path / "loop.gog"
    path.write_text(g.to_json())
    rc = main(["gog", "fold", str(path), "--budget", "4"])
    assert rc == 0
    out = G.GraphOfGroups.from_json(capsys.readouterr().out)
    (p,) = [v.presentation for v in out.vertices.values()]
    assert (3, 3, 3, -1) in p.relators


@pytest.mark.skipif(
    shutil.which("jsj-forge") is None,
    reason="console script jsj-forge is not installed; `pip install -e .` "
           "needs the wheel package")
def test_console_script_installed(tmp_path):
    exe = shutil.which("jsj-forge")
    assert exe is not None
    path = tmp_path / "z.grp"
    path.write_text("gen a\n")
    proc = subprocess.run([exe, "split", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "no-splits" in proc.stdout


def test_console_script_entry_point(tmp_path, source_cli):
    """The [project.scripts] entry resolves to a working `main`.

    Runs the wrapper an installer generates for the entry point, without
    needing the package to be installed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["jsj-forge"] == "jsjforge.cli:main"
    wrapper = "import sys; from jsjforge.cli import main; sys.exit(main())"
    path = tmp_path / "z.grp"
    path.write_text("gen a\n")
    _, env = source_cli
    proc = subprocess.run([sys.executable, "-c", wrapper, "split", str(path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no-splits" in proc.stdout


@pytest.mark.parametrize("name,text,argv", [
    ("zero.const", "delta = 1/0\n", ["split", "{grp}", "--window", "2,0",
                                     "--const", "{bad}"]),
    ("nodelta.const", "B = 3\n", ["split", "{grp}", "--window", "2,0",
                                  "--const", "{bad}"]),
    ("letter.grp", "gen a\nrel ax\n", ["split", "{bad}"]),
    ("text.gog", "not json\n", ["gog", "trace", "{bad}"]),
])
def test_malformed_input_one_line_diagnostic(tmp_path, source_cli, name,
                                             text, argv):
    grp = tmp_path / "ok.grp"
    grp.write_text("gen a b\n")
    bad = tmp_path / name
    bad.write_text(text)
    prefix, env = source_cli
    args = [a.format(grp=grp, bad=bad) for a in argv]
    proc = subprocess.run(prefix + args, capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert lines[0].startswith("jsj-forge: error: %s: " % bad)


@pytest.mark.parametrize("text,entry", [
    ("delta = 1\ndelta_per = -1\n", "delta_per"),
    ("delta = -1\n", "delta"),
    ("delta = 1/2\n", "delta"),
    ("delta = 0\nn = 0\n", "n"),
    ("delta = 0\nB = 0\nV = 4\n", "B"),
    ("delta = 0\nB = 3\nV = 0\n", "V"),
    ("delta = 1\nB = 3\nV = 5\neta = -1\n", "eta"),
])
def test_malformed_constant_entry_one_line_diagnostic(tmp_path, source_cli,
                                                      text, entry):
    grp = tmp_path / "ok.grp"
    grp.write_text("gen a b\n")
    bad = tmp_path / "bad.const"
    bad.write_text(text)
    prefix, env = source_cli
    proc = subprocess.run(prefix + ["split", str(grp), "--window", "2,0",
                                    "--const", str(bad)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert lines[0].startswith("jsj-forge: error: %s: %s: " % (bad, entry))
    assert proc.stdout == ""


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_readme_example_runs_without_mpmath(tmp_path, source_cli):
    # the README genus-2 example decides with mpmath blocked, and a run
    # that does not block it never imports it
    (tmp_path / "g2.grp").write_text("gen a b c d\nrel abABcdCD\n")
    (tmp_path / "paper.const").write_text("delta = 1\nB = 3\nV = 5\n")
    argv = ["split", "g2.grp", "--const", "paper.const", "--window", "3,1",
            "--budget", "12"]
    _, env = source_cli
    for block in (True, False):
        code = ("import sys\n"
                + ("sys.modules['mpmath'] = None\n" if block else "")
                + "from jsjforge.cli import main\n"
                "rc = main(%r)\n"
                "print('mpmath' in sys.modules)\n"
                "sys.exit(rc)\n" % argv)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              capture_output=True, text=True, timeout=60,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "answer: splits"
        assert lines[-1] == str(block)


@pytest.mark.parametrize("argv", [
    ["--window", "3", "--const", "{const}"],
    ["--window", "3,x", "--const", "{const}"],
    ["--window", "3,1"],
])
def test_malformed_window_one_line_diagnostic(tmp_path, source_cli, argv):
    grp = tmp_path / "ok.grp"
    grp.write_text("gen a b\n")
    const = tmp_path / "ok.const"
    const.write_text("delta = 0\n")
    prefix, env = source_cli
    args = ["split", str(grp)] + [a.format(const=const) for a in argv]
    proc = subprocess.run(prefix + args, capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert lines[0].startswith("jsj-forge: error: --window: ")


def test_window_element_cap_one_line_diagnostic(tmp_path, source_cli):
    # P = <a, b> is the whole free group: its graph passes 200,000
    # elements before its words outgrow twice the ball radius
    grp = tmp_path / "f2.grp"
    grp.write_text("gen a b\nper P = a b\n")
    const = tmp_path / "ok.const"
    const.write_text("delta = 0\n")
    prefix, env = source_cli
    proc = subprocess.run(prefix + ["split", str(grp), "--window", "6,1",
                                    "--const", str(const)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        "jsj-forge: error: %s: window: peripheral P exceeded element cap "
        "200000" % grp]
    assert proc.stdout == ""


def test_geometry_window_cap_without_an_input_file(tmp_path, capsys):
    # a caller such as a benchmark passes only const, window and n_cap;
    # the diagnostic then names --window
    const = tmp_path / "ok.const"
    const.write_text("delta = 0\n")
    args = argparse.Namespace(const=str(const), window="6,1", n_cap=None)
    p = parse_presentation("gen a b\nper P = a b\n")
    with pytest.raises(SystemExit) as exc:
        _geometry(args, p)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "jsj-forge: error: --window: window: peripheral P exceeded element "
        "cap 200000"]


@pytest.mark.parametrize("argv", [
    ["split", "{g2}", "--budget", "-1"],
    ["gog", "trace", "{star}", "--budget", "-3"],
    ["split", "{g2}", "--window", "3,1", "--budget", "0", "--n-cap", "-5"],
])
def test_negative_budget_is_a_usage_error(g2_file, star_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(g2=g2_file, star=star_file) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: jsj-forge %s " % argv[0])
    assert err[-1].endswith("argument %s: expected a non-negative "
                            "integer, got '%s'" % (argv[-2], argv[-1]))


@pytest.mark.parametrize("n_cap", ["0", "3"])
def test_n_cap_below_kd_is_a_usage_error(g2_file, tmp_path, capsys, n_cap):
    # delta = 1 gives Kd = 3 * 2**589 + 296, a 591-bit number: no n in
    # [Kd, n_cap] is left to check, which is not an exhausted search
    const = tmp_path / "paper.const"
    const.write_text("delta = 1\nB = 3\nV = 5\n")
    with pytest.raises(SystemExit) as exc:
        main(["split", g2_file, "--const", str(const), "--window", "3,1",
              "--budget", "0", "--n-cap", n_cap])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "jsj-forge: error: --n-cap: %s is below Kd, a 591-bit number: no n "
        "to check" % n_cap]


@pytest.mark.parametrize("option", [
    ["--window", "3,1"], ["--const", "/nonexistent.const"],
    ["--seed-markings", "/nonexistent.json"], ["--n-cap", "-7"],
])
def test_gog_rejects_pipeline_options(star_file, capsys, option):
    # gog reads only --budget and --dot; the pipeline options are unknown
    with pytest.raises(SystemExit) as exc:
        main(["gog", "trace", star_file] + option)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: jsj-forge ")
    assert err[-1].endswith("unrecognized arguments: %s" % " ".join(option))
    assert capsys.readouterr().out == ""


# <a, b | abab>: Dehn's check fails and the relator is no generator power
NO_BACKEND = "gen a b\nrel abab\n"


def test_split_no_backend_is_exhausted(tmp_path, capsys):
    path = tmp_path / "abab.grp"
    path.write_text(NO_BACKEND)
    rc = main(["split", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 3
    assert out[0] == "answer: exhausted"
    assert out[1].startswith("reason: no word-problem backend: no backend "
                             "validates for this presentation; tried dehn")
    assert out[2] == "trace: Start"


@pytest.mark.parametrize("command", ["split", "maximal", "jsj"])
def test_window_no_backend_one_line_diagnostic(tmp_path, source_cli,
                                               command):
    grp = tmp_path / "abab.grp"
    grp.write_text(NO_BACKEND)
    const = tmp_path / "ok.const"
    const.write_text("delta = 0\n")
    prefix, env = source_cli
    proc = subprocess.run(prefix + [command, str(grp), "--window", "2,0",
                                    "--const", str(const)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert lines[0].startswith(
        "jsj-forge: error: %s: no word-problem backend: " % grp)
    assert proc.stdout == ""


def test_gog_trace_edge_group_without_backend(tmp_path, capsys):
    # both ends send the edge generator a to the identity and b to the
    # vertex generator, so the relator abab goes to x^2, trivial there
    g = G.GraphOfGroups()
    u = g.add_vertex(parse_presentation("gen x\nrel xx\n"))
    v = g.add_vertex(parse_presentation("gen y\nrel yy\n"))
    g.add_edge(u, v, parse_presentation(NO_BACKEND), ((), (1,)), ((), (1,)))
    path = tmp_path / "abab.gog"
    path.write_text(g.to_json())
    rc = main(["gog", "trace", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 3
    assert len(out) == 1
    assert out[0].startswith("edge 0: no validated backend (no backend "
                             "validates for this presentation; tried dehn")


def test_gog_cylinders_no_backend_one_line_diagnostic(tmp_path, source_cli):
    # a vertex <a, b | abab>, which no backend accepts, joined to <y>
    g = G.GraphOfGroups()
    u = g.add_vertex(parse_presentation(NO_BACKEND))
    v = g.add_vertex(parse_presentation("gen y\n"))
    g.add_edge(u, v, parse_presentation("gen e\n"), ((1,),), ((1,),))
    path = tmp_path / "abab.gog"
    path.write_text(g.to_json())
    prefix, env = source_cli
    proc = subprocess.run(prefix + ["gog", "cylinders", str(path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert lines[0].startswith(
        "jsj-forge: error: %s: no word-problem backend: " % path)
    assert proc.stdout == ""


def _run_gog_subprocess(source_cli, argv, stdout=""):
    prefix, env = source_cli
    proc = subprocess.run(prefix + ["gog"] + argv, capture_output=True,
                          text=True, timeout=60, env=env)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout == stdout
    return proc.returncode, lines[0]


def _two_generator_edge():
    # <a, b> and <x, y> joined along <e, f>
    g = G.GraphOfGroups()
    u = g.add_vertex(parse_presentation("gen a b\n"))
    v = g.add_vertex(parse_presentation("gen x y\n"))
    g.add_edge(u, v, parse_presentation("gen e f\n"), ((1,), (2,)),
               ((1,), (2,)))
    return g


@pytest.mark.parametrize("doc,argv,message", [
    ("pair", ["cylinders"], "edge 0: non-cyclic edge group"),
    ("star", ["collapse", "--edges", "x"],
     "--edges: expected comma-separated edge ids, got 'x'"),
    ("star", ["collapse", "--edges", "0,7"], "--edges: no edge 7"),
])
def test_gog_malformed_input_one_line_diagnostic(tmp_path, source_cli, doc,
                                                 argv, message):
    path = tmp_path / (doc + ".gog")
    path.write_text((_two_generator_edge() if doc == "pair"
                     else _star(2)).to_json())
    rc, line = _run_gog_subprocess(source_cli,
                                   argv[:1] + [str(path)] + argv[1:])
    assert rc == 2
    assert line == "jsj-forge: error: %s: %s" % (path, message)


def test_gog_cylinders_spent_budget_is_exhausted(star_file, source_cli):
    # with no rounds of root extraction no overgroup is certified
    rc, line = _run_gog_subprocess(
        source_cli, ["cylinders", star_file, "--budget", "0"])
    assert rc == 3
    assert line == ("jsj-forge: exhausted: %s: edge 0: overgroup not "
                    "certified vc" % star_file)


def _trivial_image_edge():
    # <x> and <y> joined by an edge whose map at x is xX, the identity
    g = G.GraphOfGroups()
    u = g.add_vertex(parse_presentation("gen x\n"))
    v = g.add_vertex(parse_presentation("gen y\n"))
    g.add_edge(u, v, parse_presentation("gen e\n"), ((1, -1),), ((1,),))
    return g


def test_gog_cylinders_trivial_image_one_line_diagnostic(tmp_path,
                                                         source_cli):
    path = tmp_path / "trivial.gog"
    path.write_text(_trivial_image_edge().to_json())
    rc, line = _run_gog_subprocess(source_cli, ["cylinders", str(path)])
    assert rc == 2
    assert line == ("jsj-forge: error: %s: edge 0: trivial image at "
                    "vertex 0" % path)


def test_gog_fold_trivial_image_warns_and_skips(tmp_path, source_cli):
    # the edge is left as it is, and the graph printed unchanged
    g = _trivial_image_edge()
    path = tmp_path / "trivial.gog"
    path.write_text(g.to_json())
    rc, line = _run_gog_subprocess(source_cli, ["fold", str(path)],
                                   stdout=g.to_json() + "\n")
    assert rc == 0
    assert line == "# edge 0: trivial image at vertex 0, skipped"

import os
import sys

import pytest

import jsjforge
from jsjforge.words import parse_presentation, default_backend
from jsjforge.geometry import CuspedSpace


@pytest.fixture(scope="session")
def free2():
    p = parse_presentation("gen a b\n")
    return p, default_backend(p)


@pytest.fixture(scope="session")
def free2_space(free2):
    p, be = free2
    return CuspedSpace(p, be, R_max=8, h_max=0)


@pytest.fixture(scope="session")
def line_pair():
    """(Z, {Z}): the integer line with itself as the single peripheral."""
    p = parse_presentation("gen a\nper P = a\n")
    return p, default_backend(p)


@pytest.fixture(scope="session")
def line_space(line_pair):
    p, be = line_pair
    return CuspedSpace(p, be, R_max=16, h_max=6)


@pytest.fixture()
def source_cli():
    """(argv prefix, env) that run the `jsj-forge` CLI from the source tree.

    The directory holding the imported `jsjforge` package goes first on
    PYTHONPATH, so a subprocess runs the code under test and never a
    stale installed copy.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(jsjforge.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return [sys.executable, "-m", "jsjforge.cli"], env


CRITERIA = {
    1: "horoball metric oracle",
    2: "constant table golden",
    3: "avoiding-path negative control",
    4: "annulus oracle equivalence",
    5: "component stability",
    6: "cut-pair feature round-trip",
    7: "small-orbifold recognition",
    8: "VC toolkit",
    9: "graph-of-groups algebra",
    10: "orchestrator traces",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import re
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if m and getattr(rep, "when", "call") == "call":
                results[int(m.group(1))] = status
    if not results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for n in sorted(results):
        word = "PASS" if results[n] == "passed" else "FAIL"
        terminalreporter.write_line(
            "  criterion %2d (%s): %s" % (n, CRITERIA.get(n, "?"), word))

import itertools
import math
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


def _det(m):
    """Leibniz determinant of a square integer matrix."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        term = -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) \
            % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@pytest.fixture(scope="session")
def determinantal_divisors():
    """The integer-matrix oracle: rows, n_cols -> [d_1, d_2, ...], d_k the
    gcd of all k x k minors.  The lattice the rows span has rank the
    largest k with d_k != 0, Smith invariants d_k / d_(k-1), and is all of
    Z^n iff d_n = 1."""
    def divisors(rows, n_cols):
        out = []
        for k in range(1, min(len(rows), n_cols) + 1):
            g = 0
            for ri in itertools.combinations(rows, k):
                for ci in itertools.combinations(range(n_cols), k):
                    g = math.gcd(g, _det([[r[j] for j in ci] for r in ri]))
            out.append(g)
        return out
    return divisors


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

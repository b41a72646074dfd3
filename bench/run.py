"""Run one benchmark workload and print its result as one JSON line.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run writes its inputs under
bench/out/, compiles src/ and bench/ to bytecode, starts the program in
a fresh interpreter (bench/worker.py, with src/ on PYTHONPATH and
PYTHONHASHSEED=0), waits for it, and checks every output it reports
against the oracles in bench/oracles.py, which run here, in a separate
process from the program.  An operation (a
decision, a search or a distance query) fails when its output is wrong
or it raised; `correct` is false when a window check fails or a negative
control is not rejected.

With --trace 0 it prints the end-to-end metrics (medians over rounds;
times in seconds at the reference speed of bench/speed.py, with the
wall-time medians on standard error); with --trace 1 the per-layer
metrics of the run's one traced round, and the tracing overhead in wall
time.  Exits 1 without a result when the program cannot run.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _calls(name):
    return lambda layers, counters: layers.get(name, [0, 0.0])[0]


def _self_s(*names):
    return lambda layers, counters: sum(
        layers.get(n, [0, 0.0])[1] for n in names)


def _counter(name):
    return lambda layers, counters: counters.get(name, 0)


def _ok_ratio(layers, counters):
    calls = layers.get("hyperbolicity.check_ddag", [0, 0.0])[0]
    return counters.get("hyperbolicity.check_ddag_ok", 0) / calls \
        if calls else 0.0


# name -> (unit, value from the traced round's span summary and counters)
PER_LAYER = {
    "words.normalize_calls": ("count", _calls("words.normalize")),
    "words.normalize_s": ("s", _self_s("words.normalize")),
    "words.equal_calls": ("count", _calls("words.equal")),
    "words.equal_s": ("s", _self_s("words.equal")),
    "geometry.window_s": ("s", _self_s("geometry.window")),
    "geometry.window_vertices": ("count",
                                 _counter("geometry.window_vertices")),
    "geometry.neighbors_calls": ("count", _calls("geometry.neighbors")),
    "geometry.neighbors_s": ("s", _self_s("geometry.neighbors")),
    "geometry.bfs_calls": ("count", _calls("geometry.bfs")),
    "geometry.bfs_vertices": ("count", _counter("geometry.bfs_vertices")),
    "geometry.bfs_s": ("s", _self_s("geometry.bfs")),
    "geometry.shortest_path_calls": ("count",
                                     _calls("geometry.shortest_path")),
    "geometry.shortest_path_s": ("s", _self_s("geometry.shortest_path")),
    "geometry.h_dist_calls": ("count", _calls("geometry.h_dist")),
    "geometry.h_dist_s": ("s", _self_s("geometry.h_dist")),
    "hyperbolicity.check_ddag_calls": ("count",
                                       _calls("hyperbolicity.check_ddag")),
    "hyperbolicity.check_ddag_s": ("s", _self_s("hyperbolicity.check_ddag")),
    "hyperbolicity.check_ddag_ok_ratio": ("ratio", _ok_ratio),
    "hyperbolicity.star_pairs": ("count",
                                 _counter("hyperbolicity.star_pairs")),
    "hyperbolicity.certify_delta_s": ("s", _self_s(
        "hyperbolicity.certify_delta")),
    "hyperbolicity.triangles": ("count", _counter("hyperbolicity.triangles")),
    "annulus.decompose_calls": ("count", _calls("annulus.decompose")),
    "annulus.decompose_s": ("s", _self_s("annulus.decompose")),
    "features.search_s": ("s", _self_s("features.search")),
    "features.candidates": ("count", _counter("features.candidates")),
    "features.verify_s": ("s", _self_s("features.verify")),
    "algebra.orbifold_s": ("s", _self_s("algebra.orbifold")),
    "algebra.maps_checked": ("count", _counter("algebra.maps_checked")),
    "algebra.vc_analyze_calls": ("count", _calls("algebra.vc_analyze")),
    "algebra.vc_analyze_s": ("s", _self_s("algebra.vc_analyze")),
    "gog.split_search_s": ("s", _self_s("gog.split_search")),
    "gog.split_candidates": ("count", _counter("gog.split_candidates")),
    "gog.jsj_s": ("s", _self_s("gog.jsj")),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_worker(run_dir, seconds, trace):
    """Run the program in a fresh interpreter; None if it failed."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), run_dir,
           repr(seconds), str(trace)]
    # a guard against a hang only: a program many times slower than
    # today still finishes its rounds (two, when traced) and reports
    timeout = 60 + 10 * seconds
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("worker timed out after %g s" % timeout, file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("worker exited with %d" % proc.returncode, file=sys.stderr)
        return None
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check(oracle, controls, rounds):
    """(correct, attempted, failed, messages) over all rounds."""
    messages = []
    correct = True
    attempted = failed = 0
    for i, rnd in enumerate(rounds):
        rec = rnd["record"]
        errs = oracle.check(rec["setup"]) if rec["setup"] else []
        if errs:
            correct = False
            messages += ["round %d set-up: %s" % (i, e) for e in errs]
        for op in rec["ops"]:
            attempted += 1
            errs = oracle.check(op)
            if errs:
                failed += 1
                messages += ["round %d %s: %s" % (i, op["kind"], e)
                             for e in errs]
    missed = controls(oracle, rounds[0]["record"])
    if missed:
        correct = False
        messages += ["negative control not rejected: %s" % m for m in missed]
    return correct, attempted, failed, messages


def end_to_end(result):
    rounds = result["rounds"]
    ref = result["reference_s"]
    print("wall medians: setup %.6g s, verdict %.6g s; reference %d "
          "samples, %.3g-%.3g ms, median %.3g ms" % (
              statistics.median(r["setup_wall_s"] for r in rounds),
              statistics.median(r["verdict_wall_s"] for r in rounds),
              len(ref), 1e3 * min(ref), 1e3 * max(ref),
              1e3 * statistics.median(ref)), file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds),
                    "unit": "s"},
        "verdict_s": {"value": statistics.median(r["verdict_s"]
                                                 for r in rounds),
                      "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0,
                        "unit": "MB"},
    }


def per_layer(result):
    rounds = result["rounds"]
    (traced,) = [r["verdict_wall_s"] for r in rounds if r["traced"]]
    plain = [r["verdict_wall_s"] for r in rounds if not r["traced"]]
    layers, counters = result["layers"], result["counters"]
    metrics = {name: {"value": f(layers, counters), "unit": unit}
               for name, (unit, f) in PER_LAYER.items()}
    metrics["trace.overhead_s"] = {
        "value": traced - statistics.median(plain), "unit": "s"}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    run_dir = os.path.join(HERE, "out", "%s-trace%d" % (args.workload,
                                                        args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inputs = workloads.make_inputs(args.workload, args.seed)
    with open(os.path.join(run_dir, "inputs.json"), "w",
              encoding="utf-8") as fh:
        json.dump(inputs, fh, indent=1)
    # compiled here, so that the worker's imports neither compile (when
    # PYTHONDONTWRITEBYTECODE is set) nor lift its memory peak by doing so
    for d in (os.path.join(ROOT, "src"), HERE):
        compileall.compile_dir(d, quiet=1)
    result = run_worker(run_dir, args.seconds, args.trace)
    if result is None:
        return 1
    # imported only once the worker has ended: a child's ru_maxrss starts
    # from its parent's high-water mark, and networkx would set that
    import oracles
    oracle = oracles.ORACLES[args.workload](inputs)
    correct, attempted, failed, messages = check(
        oracle, oracles.controls, result["rounds"])
    for m in messages[:20]:
        print(m, file=sys.stderr)
    metrics = per_layer(result) if args.trace else end_to_end(result)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run of the program, in a fresh interpreter.

usage: python3 worker.py RUN_DIR SECONDS TRACE

Reads RUN_DIR/inputs.json (written by run.py), then repeats whole rounds
and stops at the round boundary nearest to SECONDS.  Each round sets the
workload up from its input files (timed as set-up) and makes every call
of the workload (timed as the verdict).  Untraced runs time both in
wall seconds and in seconds at the reference speed (see speed.py).
Outputs are converted to plain data after the verdict clock stops,
together with the program's own verifiers, and written to
RUN_DIR/result.json with the timings and the peak resident memory.  No oracle runs here: run.py checks the
outputs in its own process.

With TRACE=1 the second round is traced (see tracer.py) and every other
round is not; the spans go to RUN_DIR/spans.bin and the per-layer
summary to the result.
"""

import argparse
import gc
import itertools
import json
import os
import resource
import sys
import time
import traceback

import jsjforge
from jsjforge import algebra, annulus, cli, features, geometry, gog, \
    hyperbolicity, words

from speed import SpeedProbe
from tracer import Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

clock = time.perf_counter

# The criterion-10 seeds for the genus-2 group: an amalgam witness for
# the whole group and HNN witnesses for its two vertex groups, plus
# circle markings for the pants pieces.  Words are 1-based generator
# indices, negative for inverses.
G2_GENS = ("a", "b", "c", "d")
W1 = dict(kind="amalgam",
          q=(("a", "b", "c", "d", "z"), ((-5, 1, 2, -1, -2),
                                         (-5, 4, 3, -4, -3))),
          s1=(1, 2), s2=(3, 4), s3=(5,), t_index=None,
          iota1=((1, 2, -1, -2),), iota2=((4, 3, -4, -3),),
          fwd=((1,), (2,), (3,), (4,)),
          bwd=((1,), (2,), (3,), (4,), (1, 2, -1, -2)), per_sides=())


def _hnn(per_word):
    return dict(kind="hnn", q=(("u", "v", "t"), ((3, 1, -3, -2),)),
                s1=(1, 2), s2=(), s3=(3,), t_index=3,
                iota1=((1,),), iota2=((2,),), fwd=((1,), (3,)),
                bwd=((1,), (2, 1, -2), (2,)),
                per_sides=((1, (per_word,), ()),))


def _witness(d):
    gens, rels = d["q"]
    return gog.SplitWitness(
        d["kind"], words.Presentation(gens, rels, ()), d["s1"], d["s2"],
        d["s3"], d["t_index"], d["iota1"], d["iota2"], d["fwd"], d["bwd"],
        d["per_sides"])


def g2_seeds(relator):
    """The seeds document keyed for the genus-2 presentation."""
    g2 = words.Presentation(G2_GENS, (relator,), ())
    pv = words.Presentation(("a", "b"), (), ())
    pv2 = words.Presentation(("c", "d"), (), ())
    pants = words.Presentation(("u", "v"), (), ())
    seeds = {
        gog.seed_key(g2): {"witness": _witness(W1).to_json()},
        gog.seed_key(pv, (("e", ((1, 2, -1, -2),)),)): {
            "witness": _witness(_hnn((1, -2))).to_json()},
        gog.seed_key(pv2, (("e", ((2, 1, -2, -1),)),)): {
            "witness": _witness(_hnn((2, -1))).to_json()},
    }
    orders = [((1, -2),), ((1,),), ((2,),)]
    for order in itertools.permutations(orders):
        seeds[gog.seed_key(pants, tuple(("e", ws) for ws in order))] = {
            "circle": True}
        seeds[gog.seed_key(pants, tuple(
            ("e", ws) for ws in (((2, -1),),) + order[1:]))] = {
                "circle": True}
    return seeds


def _write(run_dir, name, text):
    path = os.path.join(run_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _geometry_args(const_path, window):
    return argparse.Namespace(const=const_path, window=window, n_cap=None)


def _window_facts(space):
    return {"kind": "window", "n": space.n,
            "sphere_sizes": space.ball.sphere_sizes()}


# ---------------------------------------------------------------------------
# workloads: prepare (untimed, once), setup (timed), calls (timed), export


class Genus2Window:
    """The README example: `jsj-forge split g2.grp --const paper.const
    --window 3,1 --budget 12`, through the same cli helpers."""

    def prepare(self, run_dir, inp):
        return {"grp": _write(run_dir, "g2.grp", inp["grp"]),
                "const": _write(run_dir, "paper.const", inp["const"]),
                "window": inp["window"], "budget": inp["budget"]}

    def setup(self, files):
        # the steps of cli._run_pipeline, in its order; the example
        # passes no --seed-markings
        p = cli._load_presentation(files["grp"])
        seeds = cli._load_seeds(None)
        geo = cli._geometry(_geometry_args(files["const"], files["window"]),
                            p)
        return {"p": p, "seeds": seeds, "geometry": geo,
                "budget": files["budget"]}

    def calls(self, st):
        p = st["p"]
        yield "split", lambda: gog.decide_split_relative(
            p, tuple(p.peripherals), budget=st["budget"], seeds=st["seeds"],
            geometry=st["geometry"])

    def export_setup(self, st):
        return _window_facts(st["geometry"][0])

    def export(self, st, op, out):
        return _export_split(st["p"], st["geometry"][0].backend, out)


def _export_split(p, backend, dec):
    rec = {"kind": "split", "answer": dec.answer, "reason": dec.reason,
           "trace": list(dec.trace),
           "window_insufficient": dec.window_insufficient,
           "witness_verified": None}
    if dec.answer == "splits" and isinstance(dec.witness, gog.SplitWitness):
        ok, _ = gog.verify_split_witness(p, backend, dec.witness,
                                         tuple(p.peripherals))
        rec["witness_verified"] = ok
    return rec


class FreeWindow:
    """F2 = <a,b> on the radius-8 ball (13,121 vertices)."""

    def prepare(self, run_dir, inp):
        return dict(inp,
                    grp=_write(run_dir, "f2.grp", inp["grp"]),
                    const=_write(run_dir, "tree.const", inp["const"]),
                    feature_const=_write(run_dir, "features.const",
                                         inp["feature_const"]))

    def setup(self, files):
        p = cli._load_presentation(files["grp"])
        window = "%d,0" % files["R"]
        space, table, n_cap = cli._geometry(
            _geometry_args(files["const"], window), p)
        ftable = cli._load_table(files["feature_const"])
        return {"p": p, "space": space, "table": table, "n_cap": n_cap,
                "ftable": ftable, "inp": files}

    def calls(self, st):
        p, space, inp = st["p"], st["space"], st["inp"]
        table, ftable = st["table"], st["ftable"]
        yield "split", lambda: gog.decide_split_relative(
            p, (), budget=inp["budget"],
            geometry=(space, table, st["n_cap"]))
        yield "certify_delta", lambda: hyperbolicity.certify_delta(
            space, inp["delta_radius"])
        yield "ddag", lambda: hyperbolicity.ddag_search(
            space, 0, table, inp["ddag_n_cap"])
        yield "cut_pair", lambda: features.search_cut_pair(
            space, ftable, budget=inp["cut_budget"])
        yield "noncut", lambda: features.search_noncut_pair(
            space, ftable, budget=inp["noncut_budget"])
        for x, y in inp["queries"]:
            yield "distance", _free_query(space, tuple(x), tuple(y))

    def export_setup(self, st):
        return _window_facts(st["space"])

    def export(self, st, op, out):
        space = st["space"]
        word = space.ball.words
        if op == "split":
            return _export_split(st["p"], space.backend, out)
        if op == "certify_delta":
            return {"kind": op, "delta": out.delta, "radius": out.radius,
                    "triangles": out.triangles}
        if op == "ddag":
            return {"kind": op, "status": out.status,
                    "failures": [[n, list(word[x]), list(word[y]), m]
                                 for n, (x, y), m in out.failures],
                    "table": {k: int(st["table"][k])
                              for k in ("C", "delta")}, "eps": out.eps}
        if op == "cut_pair":
            rec = {"kind": op, "verdict": out.verdict}
            f = out.feature
            if f is not None:
                ok, _ = features.verify_cut_pair_feature(space, f,
                                                         st["ftable"])
                rec.update(verified=ok, path=[list(word[v]) for v in f.path],
                           g=list(f.g), a=f.a_index, b=f.b_index)
            return rec
        if op == "noncut":
            return {"kind": op, "verdict": out.verdict,
                    "candidates": out.stats.get("triple_candidates", 0)
                    + out.stats.get("horseshoe_candidates", 0),
                    "lengths": [int(st["ftable"][k]) for k in ("N1", "N2")],
                    "eta": int(st["ftable"]["eta"])}
        return dict(out, kind=op)


def _free_query(space, x, y):
    def query():
        ans = geometry.distance(space, space.ball.vertex_id(x),
                                space.ball.vertex_id(y))
        return {"x": list(x), "y": list(y), "dist": ans.dist}
    return query


class LineHoroball:
    """(Z, {Z}) on the R=64, h=8 window: criterion 1's window."""

    def prepare(self, run_dir, inp):
        return dict(inp,
                    grp=_write(run_dir, "line.grp", inp["grp"]),
                    cut_point_const=_write(run_dir, "cut_point.const",
                                           inp["cut_point_const"]),
                    horseshoe_const=_write(run_dir, "horseshoe.const",
                                           inp["horseshoe_const"]))

    def setup(self, files):
        p = cli._load_presentation(files["grp"])
        window = "%d,%d" % (files["R"], files["h"])
        space, cut_table, _ = cli._geometry(
            _geometry_args(files["cut_point_const"], window), p)
        hs_table = cli._load_table(files["horseshoe_const"])
        return {"p": p, "space": space, "cut_table": cut_table,
                "hs_table": hs_table, "inp": files}

    def calls(self, st):
        space, inp = st["space"], st["inp"]

        def tid(x):
            return space.ball.vertex_id((1,) * x if x >= 0 else (-1,) * -x)

        for x, y in inp["queries"]:
            yield "distance", _line_query(space, tid, x, y)
        yield "cut_point", lambda: features.detect_cut_point(
            space, st["cut_table"])
        yield "horseshoe", lambda: features.search_noncut_pair(
            space, st["hs_table"], budget=inp["horseshoe_budget"])
        for x, r, K, R, R2 in inp["rays"]:
            yield "stability", _line_ray(space, tid, x, r, K, R, R2)

    def export_setup(self, st):
        return _window_facts(st["space"])

    def export(self, st, op, out):
        space = st["space"]
        if op == "cut_point":
            rec = {"kind": op, "verdict": out.verdict}
            if out.feature is not None:
                rec["components"] = out.feature["components"]
            t = st["cut_table"]
            rec["params"] = [int(t[k]) for k in ("r", "K", "R", "k")]
            return rec
        if op == "horseshoe":
            rec = {"kind": op, "verdict": out.verdict}
            f = out.feature
            if f is not None:
                ok, _ = features.verify_noncut_feature(space, f,
                                                       st["hs_table"])
                rec.update(feature_kind=f.kind, verified=ok,
                           path=[line_label(space, v) for v in f.path])
            return rec
        return dict(out, kind=op)


def _line_query(space, tid, x, y):
    def query():
        return {"x": x, "y": y,
                "dist": geometry.distance(space, tid(x), tid(y)).dist}
    return query


def _line_ray(space, tid, x, r, K, R, R2):
    def query():
        ray = space.vertical_ray(tid(x), 0)
        return {"x": x, "params": [r, K, R, R2],
                "stable": annulus.component_count_stability(
                    space, ray, r, K, R, R2)}
    return query


def line_label(space, vid):
    """The node of the benchmark's networkx model of the line window:
    ("t", x) for the thick point a^x, ("h", x, k) above it at height k."""
    word = space.group_word(vid)
    x = sum(1 if s > 0 else -1 for s in word)
    k = space.height(vid)
    return ["t", x] if k == 0 else ["h", x, k]


class OrbifoldJsj:
    """Catalogue recognition and JSJ assembly: algebra and gog only."""

    def prepare(self, run_dir, inp):
        files = {"matches": [], "flavors": inp["flavors"],
                 "jsj_budget": inp["jsj_budget"]}
        for m in inp["matches"]:
            files["matches"].append(dict(
                m, grp=_write(run_dir, m["name"] + ".grp", m["grp"])))
        files["jsj_grp"] = _write(run_dir, "g2.grp", inp["jsj_grp"])
        relator = words.parse_presentation(inp["jsj_grp"]).relators[0]
        files["seeds"] = _write(run_dir, "g2-seeds.json",
                                json.dumps(g2_seeds(relator)))
        return files

    def setup(self, files):
        matches = []
        for m in files["matches"]:
            p = cli._load_presentation(m["grp"])
            matches.append((m, p, words.default_backend(p)))
        g2 = cli._load_presentation(files["jsj_grp"])
        seeds = cli._load_seeds(files["seeds"])
        return {"matches": matches, "g2": g2, "seeds": seeds,
                "files": files}

    def calls(self, st):
        for m, p, be in st["matches"]:
            yield "orbifold", _match(m, p, be)
        g2, files = st["g2"], st["files"]
        for flavor in files["flavors"]:
            yield "jsj", _jsj(g2, flavor, files["jsj_budget"], st["seeds"])

    def export_setup(self, st):
        return None  # no window: nothing of the set-up to check

    def export(self, st, op, out):
        if op == "orbifold":
            m, p, be, outcome = out
            rec = {"kind": op, "name": m["name"], "verdict": outcome.verdict,
                   "maps_checked": outcome.stats.get("maps_checked")}
            f = outcome.feature
            if f is not None:
                mp = f.model.presentation
                rec.update(
                    item=f.model.item, params=list(f.model.params),
                    model={"gens": len(mp.generators),
                           "relators": [list(r) for r in mp.relators],
                           "peripherals": [[list(w) for w in ws]
                                           for _, ws in mp.peripherals]},
                    target={"gens": len(p.generators),
                            "relators": [list(r) for r in p.relators],
                            "peripherals": [[list(w) for w in ws]
                                            for _, ws in p.peripherals]},
                    phi=[list(w) for w in f.phi],
                    psi=[list(w) for w in f.psi],
                    conjugators=[list(c) for c in f.conjugators],
                    pairing=list(f.pairing))
            return rec
        flavor, g, art = out
        return {"kind": op, "flavor": flavor,
                "warnings": list(art["warnings"]),
                "partial": art["report"]["partial"],
                "graph": json.loads(g.to_json())}


def _match(m, p, be):
    def call():
        out = algebra.small_orbifold_match(p, list(p.peripherals), be,
                                           budget=m["budget"])
        return m, p, be, out
    return call


def _jsj(g2, flavor, budget, seeds):
    def call():
        g, art = gog.assemble_jsj(g2, flavor=flavor, budget=budget,
                                  seeds=seeds)
        return flavor, g, art
    return call


WORKLOADS = {"genus2-window": Genus2Window, "free-window": FreeWindow,
             "line-horoball": LineHoroball, "orbifold-jsj": OrbifoldJsj}


# ---------------------------------------------------------------------------
# the round loop


def run_round(wl, files):
    """One whole round; returns ((start, inputs ready, last answer),
    state, results)."""
    t0 = clock()
    st = wl.setup(files)
    t1 = clock()
    results = [(op, _attempt(call)) for op, call in wl.calls(st)]
    t2 = clock()
    return (t0, t1, t2), st, results


def _attempt(call):
    try:
        return True, call()
    except Exception:  # an operation that raises counts as failed
        return False, traceback.format_exc()


def export_round(wl, st, results):
    ops = []
    for op, (ok, out) in results:
        if not ok:
            ops.append({"kind": op, "error": out})
            continue
        try:
            ops.append(wl.export(st, op, out))
        except Exception:
            ops.append({"kind": op, "error": traceback.format_exc()})
    return {"setup": wl.export_setup(st), "ops": ops}


def main(argv):
    if os.path.dirname(os.path.dirname(jsjforge.__file__)) != SRC:
        print("jsjforge imported from %s, not from %s"
              % (jsjforge.__file__, SRC), file=sys.stderr)
        return 1
    run_dir, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    with open(os.path.join(run_dir, "inputs.json"), encoding="utf-8") as fh:
        inp = json.load(fh)
    wl = WORKLOADS[inp["workload"]]()
    files = wl.prepare(run_dir, inp)
    tracer = Tracer() if trace else None
    # the speed probe's signal would land inside traced spans
    probe = None if trace else SpeedProbe()
    rounds = []
    stamps = []
    if probe is not None:
        probe.start()
    start = clock()
    while True:
        traced = trace and len(rounds) == 1
        gc.collect()  # every round starts from the same clean heap
        if traced:
            tracer.install()
        try:
            (t0, t1, t2), st, results = run_round(wl, files)
        finally:
            if traced:
                tracer.uninstall()
        stamps.append((t0, t1, t2))
        rounds.append({"setup_wall_s": t1 - t0, "verdict_wall_s": t2 - t1,
                       "traced": traced,
                       "record": export_round(wl, st, results)})
        del st, results
        # stop at the round boundary nearest to the deadline
        elapsed = clock() - start
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds \
                and (not trace or len(rounds) >= 2):
            break
    if probe is not None:
        probe.stop()
        for rnd, (t0, t1, t2) in zip(rounds, stamps):
            rnd["setup_s"] = probe.scaled(t0, t1)
            rnd["verdict_s"] = probe.scaled(t1, t2)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"rounds": rounds, "peak_rss_kb": peak_kb}
    if probe is not None:
        result["reference_s"] = [e - s for s, e in zip(probe.starts,
                                                        probe.ends)]
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counters"] = tracer.counters
        tracer.write(os.path.join(run_dir, "spans.bin"))
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

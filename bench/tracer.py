"""Span tracing of the program's layers, installed from outside the program.

`Tracer.install()` replaces each traced function of the `jsjforge`
package by a wrapper that records one span per call: name, start, end
and the span that was open when the call began.  A function imported by
name into another module is replaced in every module that binds it, so
`bfs_distances` is traced whether `geometry`, `hyperbolicity`, `annulus`
or `features` calls it.  Methods are replaced on their class.
`uninstall()` puts every original back.

Spans are kept in memory in flat arrays (24 bytes a span) and written
out by `write()` when the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

import json
import sys
import time
from array import array

# (span name, module, attribute) for functions; (span name, module,
# class, method) for methods
FUNCTIONS = (
    ("geometry.bfs", "jsjforge.geometry", "bfs_distances"),
    ("geometry.shortest_path", "jsjforge.geometry", "shortest_path"),
    ("geometry.distance", "jsjforge.geometry", "distance"),
    ("hyperbolicity.certify_delta", "jsjforge.hyperbolicity",
     "certify_delta"),
    ("hyperbolicity.check_ddag", "jsjforge.hyperbolicity", "check_ddag"),
    ("hyperbolicity.ddag_search", "jsjforge.hyperbolicity", "ddag_search"),
    ("annulus.decompose", "jsjforge.annulus", "annulus_decompose"),
    ("features.search", "jsjforge.features", "detect_cut_point"),
    ("features.search", "jsjforge.features", "search_cut_pair"),
    ("features.search", "jsjforge.features", "search_noncut_pair"),
    ("features.search", "jsjforge.features", "decide_circle"),
    ("features.verify", "jsjforge.features", "verify_cut_pair_feature"),
    ("features.verify", "jsjforge.features", "verify_noncut_feature"),
    ("algebra.orbifold", "jsjforge.algebra", "small_orbifold_match"),
    ("algebra.vc_analyze", "jsjforge.algebra", "vc_analyze"),
    ("gog.split_search", "jsjforge.gog", "split_search"),
    ("gog.jsj", "jsjforge.gog", "assemble_jsj"),
)
METHODS = (
    ("words.normalize", "jsjforge.words", "FreeBackend", "normalize"),
    ("words.normalize", "jsjforge.words", "DehnBackend", "normalize"),
    ("words.normalize", "jsjforge.words", "RewritingBackend", "normalize"),
    ("words.equal", "jsjforge.words", "WordProblemBackend", "equal"),
    ("geometry.window", "jsjforge.geometry", "CuspedSpace", "__init__"),
    ("geometry.neighbors", "jsjforge.geometry", "CuspedSpace", "neighbors"),
    ("geometry.h_dist", "jsjforge.geometry", "PeripheralGraph", "h_dist"),
)
# generators are counted, not timed: their body runs interleaved with
# the caller's, so it has no span of its own
COUNTED_GENERATORS = (
    ("hyperbolicity.star_pairs", "jsjforge.hyperbolicity",
     "star_pairs_iter"),
)

_clock = time.perf_counter


def _stats(out):
    # decide_circle returns a CircleVerdict, which has no stats
    return getattr(out, "stats", None) or {}


def _candidates(out, args):
    return sum(v for k, v in _stats(out).items()
               if k.endswith("_candidates"))


def _stat(key):
    return lambda out, args: _stats(out).get(key, 0)


# per span name: counter name -> function of (result, args) giving the
# amount to add
OUTCOME_COUNTERS = {
    "geometry.window": {"geometry.window_vertices":
                        lambda out, args: args[0].n},
    "geometry.bfs": {"geometry.bfs_vertices": lambda out, args: len(out)},
    "hyperbolicity.check_ddag": {"hyperbolicity.check_ddag_ok":
                                 lambda out, args: int(out.ok)},
    "hyperbolicity.certify_delta": {"hyperbolicity.triangles":
                                    lambda out, args: out.triangles},
    "features.search": {"features.candidates": _candidates},
    "algebra.orbifold": {"algebra.maps_checked": _stat("maps_checked")},
    "gog.split_search": {"gog.split_candidates": _stat("candidates")},
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ix = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {}
        self._stack = [-1]
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _ix(self, name):
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def _wrap(self, name, fn):
        # the arrays and the stack are bound to locals: this wrapper runs
        # millions of times in a traced round
        ix = self._ix(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        counters = self.counters
        extract = tuple(OUTCOME_COUNTERS.get(name, {}).items())

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(_clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = _clock()
                stack.pop()
            for key, f in extract:
                counters[key] = counters.get(key, 0) + f(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_generator(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[name] = counters.get(name, 0) + 1
                yield item

        counted.__wrapped__ = fn
        return counted

    # -- installing ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "jsjforge" and not modname.startswith("jsjforge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        for name, modname, attr in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            self._replace_everywhere(fn, self._wrap(name, fn))
        for name, modname, attr in COUNTED_GENERATORS:
            fn = getattr(sys.modules[modname], attr)
            self._replace_everywhere(fn, self._count_generator(name, fn))
        for name, modname, clsname, meth in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- reporting -----------------------------------------------------------

    def summary(self):
        """name -> [calls, self seconds]."""
        calls = [0] * len(self.names)
        selft = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(starts)):
            d = ends[i] - starts[i]
            calls[names[i]] += 1
            selft[names[i]] += d
            if parents[i] >= 0:
                selft[names[parents[i]]] -= d
        return {name: [calls[ix], selft[ix]]
                for ix, name in enumerate(self.names)}

    def write(self, path):
        """Write spans as a JSON header line followed by the raw arrays
        (name index int32, parent int32, start float64, end float64)."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": ["name:i4", "parent:i4", "start:f8", "end:f8"],
                  "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


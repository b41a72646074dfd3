"""Graph-of-groups data model, transformations, splitting search, and
the decision orchestrator.

Vertex presentations carry globally unique generator names (namespaced
at insertion), so merging vertices under edge collapse is a plain
ordered union and the collapse composition law holds on the nose up to
canonical relabeling.  All searches are budgeted and certificate
producing; seeded facts (oracle injection) are always verified before
use and labelled in the decision trace.
"""

import itertools
import json
from dataclasses import dataclass

from .words import BackendError, Presentation, abelianization_rank, \
    concat, conjugate, default_backend, enumerate_tietze, free_reduce, \
    images_generate_abelianization, inverse_word, substitute, \
    words_shortlex, _subst_images
from .algebra import BudgetError, order_of, small_orbifold_match, vc_analyze
from .annulus import UnionFind

MARKINGS = ("vc", "hangingFuchsian", "rigid", "unknown")
# an amalgam match tries both sides for at most MAX_FREE_ASSIGN leftover
# generators; a maximal splitting makes at most MAX_PASSES passes over
# its vertices
MAX_FREE_ASSIGN = 6
MAX_PASSES = 8
# fixed bounds of the algebraic questions, apart from any candidate
# budget: vc_analyze rounds and conjugator or inverting word length (a
# root's powers to 4 * ALGEBRA_BOUND), and small-orbifold rounds
ALGEBRA_BOUND = 4
ORBIFOLD_ROUNDS = 3


# ---------------------------------------------------------------------------
# name-indexed words


def strip_ns(name):
    """Drop the `v3.`-style namespace prefix from a generator name."""
    head, dot, tail = name.partition(".")
    return tail if dot and head[:1] in "vec" else name


def to_names(p, w):
    return tuple((1 if x > 0 else -1, p.generators[abs(x) - 1]) for x in w)


def from_names(p, nw):
    idx = {g: i + 1 for i, g in enumerate(p.generators)}
    return tuple(sign * idx[name] for sign, name in nw)


# ---------------------------------------------------------------------------
# the graph


@dataclass
class GoGVertex:
    presentation: Presentation
    marking: str = "unknown"


@dataclass
class GoGEdge:
    source: int
    target: int
    presentation: Presentation
    inj_source: tuple         # one word (in source indexing) per edge gen
    inj_target: tuple


class GraphOfGroups:
    def __init__(self, flavor="plain"):
        self.flavor = flavor
        self.vertices = {}
        self.edges = {}
        self._vnext = 0
        self._enext = 0

    def add_vertex(self, presentation, marking="unknown", namespace=True,
                   vid=None):
        if vid is None:
            vid = self._vnext
        self._vnext = max(self._vnext, vid + 1)
        if namespace:
            names = tuple("v%d.%s" % (vid, g)
                          for g in presentation.generators)
            presentation = Presentation(names, presentation.relators,
                                        presentation.peripherals)
        self.vertices[vid] = GoGVertex(presentation, marking)
        return vid

    def add_edge(self, source, target, presentation, inj_source, inj_target,
                 eid=None):
        if eid is None:
            eid = self._enext
        self._enext = max(self._enext, eid + 1)
        self.edges[eid] = GoGEdge(source, target, presentation,
                                  tuple(map(tuple, inj_source)),
                                  tuple(map(tuple, inj_target)))
        return eid

    def copy(self):
        g = GraphOfGroups(self.flavor)
        for vid in sorted(self.vertices):
            v = self.vertices[vid]
            g.add_vertex(v.presentation, v.marking, namespace=False, vid=vid)
        for eid in sorted(self.edges):
            e = self.edges[eid]
            g.add_edge(e.source, e.target, e.presentation, e.inj_source,
                       e.inj_target, eid=eid)
        return g

    # -- serialization ------------------------------------------------------

    @staticmethod
    def _pres_doc(p):
        return {"generators": list(p.generators),
                "relators": [list(r) for r in p.relators],
                "peripherals": [[name, [list(w) for w in ws]]
                                for name, ws in p.peripherals]}

    @staticmethod
    def _pres_from_doc(doc):
        return Presentation(
            tuple(doc["generators"]),
            tuple(tuple(r) for r in doc["relators"]),
            tuple((name, tuple(tuple(w) for w in ws))
                  for name, ws in doc.get("peripherals", [])))

    def to_json(self):
        return json.dumps({
            "flavor": self.flavor,
            "vertices": [{"id": vid,
                          "presentation": self._pres_doc(v.presentation),
                          "marking": v.marking,
                          "peripherals": [
                              [name, [list(w) for w in ws]]
                              for name, ws in v.presentation.peripherals]}
                         for vid, v in sorted(self.vertices.items())],
            "edges": [{"id": eid, "from": e.source, "to": e.target,
                       "presentation": self._pres_doc(e.presentation),
                       "inj_from": [list(w) for w in e.inj_source],
                       "inj_to": [list(w) for w in e.inj_target]}
                      for eid, e in sorted(self.edges.items())],
        }, indent=1)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        g = cls(doc.get("flavor", "plain"))
        for vd in doc["vertices"]:
            g.add_vertex(cls._pres_from_doc(vd["presentation"]),
                         vd.get("marking", "unknown"), namespace=False,
                         vid=vd["id"])
        for ed in doc["edges"]:
            g.add_edge(ed["from"], ed["to"],
                       cls._pres_from_doc(ed["presentation"]),
                       [tuple(w) for w in ed["inj_from"]],
                       [tuple(w) for w in ed["inj_to"]], eid=ed["id"])
        return g

    def to_dot(self):
        lines = ["graph gog {"]
        for vid, v in sorted(self.vertices.items()):
            lines.append('  v%d [label="%s\\n<%s>"];'
                         % (vid, v.marking,
                            " ".join(v.presentation.generators)))
        for eid, e in sorted(self.edges.items()):
            lines.append('  v%d -- v%d [label="e%d"];'
                         % (e.source, e.target, eid))
        lines.append("}")
        return "\n".join(lines)


def validate_gog(g):
    """Itemized diagnostics: marking sanity, edge-map arity and range,
    relator images checked in the endpoint backends, and each generator
    sent to the identity flagged when the edge group's backend finds it
    nontrivial."""
    diags = []
    backends = {}

    def be(what, i, presentation):
        """The backend of vertex or edge i, or None (diagnosed once)."""
        if (what, i) not in backends:
            try:
                backends[what, i] = default_backend(presentation)
            except BackendError as exc:
                backends[what, i] = None
                diags.append("%s %d: no validated backend (%s)"
                             % (what, i, exc))
        return backends[what, i]

    for vid, v in sorted(g.vertices.items()):
        if v.marking not in MARKINGS:
            diags.append("vertex %d: unknown marking %r" % (vid, v.marking))
    for eid, e in sorted(g.edges.items()):
        for end, vid, inj in (("from", e.source, e.inj_source),
                              ("to", e.target, e.inj_target)):
            if vid not in g.vertices:
                diags.append("edge %d: missing endpoint %d" % (eid, vid))
                continue
            if len(inj) != len(e.presentation.generators):
                diags.append("edge %d (%s): map arity %d != %d edge "
                             "generators" % (eid, end, len(inj),
                                             len(e.presentation.generators)))
                continue
            n_gens = len(g.vertices[vid].presentation.generators)
            bad = [x for w in inj for x in w
                   if not 1 <= abs(x) <= n_gens]
            if bad:
                diags.append("edge %d (%s): image uses generator index %d "
                             "outside vertex %d" % (eid, end, bad[0], vid))
                continue
            b = be("vertex", vid, g.vertices[vid].presentation)
            if b is None:
                continue
            for r in e.presentation.relators:
                if b.normalize(substitute(r, inj)):
                    diags.append(
                        "edge %d (%s): relator image %r is not trivial in "
                        "vertex %d" % (eid, end, r, vid))
            for i, w in enumerate(inj):
                if b.normalize(tuple(w)):
                    continue
                # judged in the edge group, when it has a backend
                eb = be("edge", eid, e.presentation)
                if eb is not None and eb.normalize((i + 1,)):
                    diags.append("edge %d (%s): generator %d maps to the "
                                 "identity" % (eid, end, i))
    return diags


# ---------------------------------------------------------------------------
# canonical comparison


def _stripped(p, w):
    return tuple((s, strip_ns(n)) for s, n in to_names(p, w))


def _vertex_key(v):
    return (v.marking,
            tuple(sorted(strip_ns(n) for n in v.presentation.generators)),
            tuple(sorted(_stripped(v.presentation, r)
                         for r in v.presentation.relators)))


def canonical_key(g):
    vkeys = {vid: _vertex_key(v) for vid, v in g.vertices.items()}
    ekeys = []
    for e in g.edges.values():
        ends = sorted([repr(vkeys[e.source]), repr(vkeys[e.target])])
        inj = sorted([
            repr(tuple(_stripped(g.vertices[e.source].presentation, w)
                       for w in e.inj_source)),
            repr(tuple(_stripped(g.vertices[e.target].presentation, w)
                       for w in e.inj_target))])
        ekeys.append((tuple(ends),
                      tuple(sorted(e.presentation.generators)),
                      tuple(sorted(e.presentation.relators)),
                      tuple(inj)))
    return repr((g.flavor, sorted(map(repr, vkeys.values())),
                 sorted(map(repr, ekeys))))


# ---------------------------------------------------------------------------
# collapse


def collapse_edges(g, edge_ids):
    """Quotient graph of groups: contracted non-loop edges merge their
    endpoints into an amalgam presentation; contracted loops become HNN
    stable letters.  Vertex generator names are already globally unique,
    so the merged generator list is an ordered union (parts sorted by
    vertex id) and the composition law holds exactly."""
    edge_ids = set(edge_ids)
    # a contracted edge is a loop (an HNN stable letter) when the edges
    # before it in id order already joined its ends: each class keeps a
    # spanning tree of plain merges
    uf = UnionFind(g.vertices)
    loops = set()
    for eid in sorted(edge_ids):
        e = g.edges[eid]
        if uf.find(e.source) == uf.find(e.target):
            loops.add(eid)
        uf.union(e.source, e.target)
    classes = {}
    for vid in sorted(g.vertices):
        classes.setdefault(uf.find(vid), []).append(vid)

    out = GraphOfGroups(g.flavor)
    name_home = {}
    for root in sorted(classes):
        parts = classes[root]
        gens = []
        rels = []
        markings = set()
        for vid in parts:
            p = g.vertices[vid].presentation
            offset = len(gens)
            gens.extend(p.generators)
            rels.extend(tuple((x + offset if x > 0 else x - offset)
                              for x in r) for r in p.relators)
            markings.add(g.vertices[vid].marking)
        index = {name: i + 1 for i, name in enumerate(gens)}

        def reindex(vid, w, index=index):
            p = g.vertices[vid].presentation
            return tuple(s * index[n] for s, n in to_names(p, w))

        for eid in sorted(edge_ids):
            e = g.edges[eid]
            if uf.find(e.source) != root:
                continue
            t = ()  # a merge identifies w1 with w2, an HNN conjugates
            if eid in loops:
                # HNN: fresh stable letter named by the original edge id
                gens.append("e%d.t" % eid)
                index[gens[-1]] = len(gens)
                t = (len(gens),)
            for w1, w2 in zip(e.inj_source, e.inj_target):
                rels.append(free_reduce(
                    t + reindex(e.source, w1) + inverse_word(t)
                    + inverse_word(reindex(e.target, w2))))
        marking = markings.pop() if len(markings) == 1 else "unknown"
        pres = Presentation(tuple(gens), tuple(rels), ())
        out.add_vertex(pres, marking, namespace=False, vid=root)
        for name in gens:
            name_home[name] = root
    for eid in sorted(g.edges):
        if eid in edge_ids:
            continue
        e = g.edges[eid]
        ns, nt = uf.find(e.source), uf.find(e.target)

        def remap(vid, words, target_vid):
            src_p = g.vertices[vid].presentation
            dst_p = out.vertices[target_vid].presentation
            return tuple(from_names(dst_p, to_names(src_p, w))
                         for w in words)

        out.add_edge(ns, nt, e.presentation,
                     remap(e.source, e.inj_source, ns),
                     remap(e.target, e.inj_target, nt), eid=eid)
    return out


# ---------------------------------------------------------------------------
# tree of cylinders


def _conjugate_powers(backend, u, w):
    """Bounded commensurability test: c u^p c^-1 = w^(+-q) for some p, q
    up to ALGEBRA_BOUND and a conjugator c of at most ALGEBRA_BOUND
    letters.  One pass: the targets w^(+-q) are normalized once into a
    set, each u^p once, and each c u^p c^-1 once, then looked up."""
    n = len(backend.presentation.generators)
    ks = range(1, ALGEBRA_BOUND + 1)
    targets = {backend.normalize(x * q)
               for x in (tuple(w), inverse_word(w)) for q in ks}
    conjs = list(words_shortlex(n, ALGEBRA_BOUND))
    for up in [backend.normalize(tuple(u) * p_) for p_ in ks]:
        if any(backend.normalize(conjugate(c, up)) in targets
               for c in conjs):
            return True
    return False


def _ends(e):
    """The (vertex, edge map) at each end of edge e, source first."""
    return (e.source, e.inj_source), (e.target, e.inj_target)


def _edge_root(g, eid, end, backends, delta):
    """The root question at one end (0 source, 1 target) of the cyclic
    edge eid: (u, report, m), with u the image of the edge generator in
    normal form, report the vc_analyze of <u>, whose overgroup's first
    generator is the root r, and r^m = u (m is None unless the verdict
    is vc and a power up to 4*ALGEBRA_BOUND matches).  Builds the vertex
    backend into `backends` on first use; raises BackendError when there
    is none, and ValueError when u is trivial."""
    vid, inj = _ends(g.edges[eid])[end]
    if vid not in backends:
        backends[vid] = default_backend(g.vertices[vid].presentation)
    be = backends[vid]
    u = be.normalize(tuple(inj[0]))
    if not u:
        raise ValueError("edge %d: trivial image at vertex %d" % (eid, vid))
    rep = vc_analyze(g.vertices[vid].presentation, be, delta, [u],
                     budget=ALGEBRA_BOUND)
    m = None
    if rep.verdict == "vc":
        m = _power_of(be, rep.overgroup[0], u, 4 * ALGEBRA_BOUND)
    return u, rep, m


def _power_of(backend, base, target, bound):
    for sign, step in ((1, base), (-1, inverse_word(base))):
        acc = ()
        for k in range(1, bound + 1):
            acc = backend.normalize(concat(acc, step))
            if acc == target:
                return sign * k
    return None


def tree_of_cylinders(g, delta=0):
    """Bipartite quotient: original vertices on one side, one cylinder
    vertex per commensurability class of cyclic edge groups on the
    other; the cylinder group is <g>, g the root of the class
    representative, and each end maps into it by its own root power m.
    Raises ValueError on a non-cyclic edge group or a trivial image,
    BackendError on an end with no backend, and BudgetError when root
    extraction does not certify an overgroup within ALGEBRA_BOUND, an
    end's image is no power of its root up to 4 * ALGEBRA_BOUND, or an
    end's overgroup has more than one generator (an inverting element
    or torsion): no exponent is guessed, and no cylinder other than a
    cyclic one is written."""
    backends = {}
    roots = {}
    images = {}
    for eid, e in sorted(g.edges.items()):
        if len(e.presentation.generators) != 1:
            raise ValueError("edge %d: non-cyclic edge group" % eid)
        roots[eid] = [_edge_root(g, eid, end, backends, delta)
                      for end in (0, 1)]
        (u_source, _, _), (u_target, _, _) = roots[eid]
        # the image at each endpoint; a loop keeps its source image
        images[eid] = {e.target: u_target, e.source: u_source}
    uf = UnionFind(roots)
    eids = sorted(roots)
    for a, b in itertools.combinations(eids, 2):
        for v in sorted(images[a].keys() & images[b].keys()):
            if _conjugate_powers(backends[v], images[a][v], images[b][v]):
                uf.union(a, b)
                break
    classes = {}
    for eid in eids:
        classes.setdefault(uf.find(eid), []).append(eid)

    out = GraphOfGroups("tree-of-cylinders")
    for vid in sorted(g.vertices):
        v = g.vertices[vid]
        out.add_vertex(v.presentation, v.marking, namespace=False, vid=vid)
    for ci, root in enumerate(sorted(classes)):
        (_, rep, _), _ = roots[root]  # read at the representative's source
        if rep.verdict != "vc":
            raise BudgetError("edge %d: overgroup not certified vc" % root)
        cid = out.add_vertex(Presentation(("cyl%d.g0" % ci,), (), ()), "vc",
                             namespace=False)
        for eid in classes[root]:
            e = g.edges[eid]
            for (endpoint, inj), (_, report, k) in zip(_ends(e), roots[eid]):
                if k is None:
                    raise BudgetError("edge %d at vertex %d: no root power "
                                      "up to %d" % (eid, endpoint,
                                                    4 * ALGEBRA_BOUND))
                if len(report.overgroup) > 1:
                    raise BudgetError("edge %d at vertex %d: overgroup of %d "
                                      "generators, not cyclic"
                                      % (eid, endpoint, len(report.overgroup)))
                cyl_word = tuple([1] * k if k >= 0 else [-1] * (-k))
                out.add_edge(endpoint, cid, e.presentation,
                             (tuple(inj[0]),), (cyl_word,))
    return out


# ---------------------------------------------------------------------------
# Z_max fold


def zmax_fold(g, delta=0):
    """Replace each cyclic edge group by its maximal VC overgroup at an
    end where its image is r^m, |m| >= 2: the edge map there becomes the
    root r, and the opposite endpoint absorbs a fresh root generator.
    Iterated in deterministic edge order to a fixpoint; each warning is
    given once."""
    g = g.copy()
    warnings = []
    backends = {}
    for _ in range(ALGEBRA_BOUND * (len(g.edges) + 1)):
        changed = False
        for eid in sorted(g.edges):
            if len(g.edges[eid].presentation.generators) != 1:
                warnings.append("edge %d: non-cyclic, skipped" % eid)
                continue
            for end, (vid, _) in enumerate(_ends(g.edges[eid])):
                try:
                    _, rep, m = _edge_root(g, eid, end, backends, delta)
                except BackendError as exc:
                    warnings.append("vertex %d: %s" % (vid, exc))
                    continue
                except ValueError as exc:  # a trivial image
                    warnings.append("%s, skipped" % exc)
                    break
                if rep.verdict != "vc":
                    warnings.append("edge %d at vertex %d: overgroup "
                                    "unknown" % (eid, vid))
                    continue
                if m is not None and abs(m) >= 2 and len(rep.overgroup) == 1:
                    # the opposite vertex changes: its backend is stale
                    backends.pop(_apply_fold(g, eid, end, rep.overgroup[0],
                                             m), None)
                    changed = True
                    break
            if changed:
                break
        if not changed:
            break
    return g, list(dict.fromkeys(warnings))


def _apply_fold(g, eid, end, root, m):
    """Send the edge generator to the root at end `end` of edge eid; the
    opposite vertex gains a generator e<eid>.r with e<eid>.r^m equal to
    its old image u: in x's slot when u is one letter x^+-1, with x =
    e<eid>.r^+-m substituted in the vertex and its edge maps (so a free
    vertex stays free), else by the relator e<eid>.r^m u^-1.  Returns
    the opposite vertex id."""
    e = g.edges[eid]
    other_vid, other_inj = _ends(e)[1 - end]
    ov = g.vertices[other_vid]
    p, u, name = ov.presentation, tuple(other_inj[0]), "e%d.r" % eid
    if len(u) == 1:
        t = abs(u[0])
        images = _subst_images(len(p.generators), t,
                               (t if u[0] * m > 0 else -t,) * abs(m))

        def sub(words):
            return tuple(substitute(w, images) for w in words)

        p = Presentation(p.generators[:t - 1] + (name,) + p.generators[t:],
                         sub(p.relators),
                         tuple((n, sub(ws)) for n, ws in p.peripherals))
        for f in g.edges.values():
            if f.source == other_vid:
                f.inj_source = sub(f.inj_source)
            if f.target == other_vid:
                f.inj_target = sub(f.inj_target)
        if _ends(e)[end][0] == other_vid:  # a loop: the root is there too
            (root,) = sub((root,))
    else:
        t = len(p.generators) + 1
        rel = free_reduce((t if m >= 0 else -t,) * abs(m) + inverse_word(u))
        p = Presentation(p.generators + (name,), p.relators + (rel,),
                         p.peripherals)
    g.vertices[other_vid] = GoGVertex(p, ov.marking)
    maps = ((tuple(root),), ((t,),))
    g.edges[eid] = GoGEdge(e.source, e.target, e.presentation,
                           *(maps[::-1] if end else maps))
    return other_vid


# ---------------------------------------------------------------------------
# internal surface edges


def internal_surface_edges(g, delta=0):
    """Edges both of whose endpoints are hanging Fuchsian with the edge
    group maximal VC there (its image is the root of a one-generator
    overgroup, m = +-1), or extended-Moebius (VC vertex with the edge
    image of index two: E trivial, and |m| = 2 with one overgroup
    generator or |m| = 1 with two, the root and an inverting one).  Both
    read the edge's own root question; unknown verdicts (no m certified)
    exclude the edge and warn."""
    warnings = []
    backends = {}
    keep = set()
    for eid, e in sorted(g.edges.items()):
        if len(e.presentation.generators) != 1:
            warnings.append("edge %d: non-cyclic, excluded" % eid)
            continue
        sides = []
        for end, (vid, _) in enumerate(_ends(e)):
            v = g.vertices[vid]
            if v.marking not in ("hangingFuchsian", "vc"):
                sides.append(False)
                continue
            try:
                _, rep, m = _edge_root(g, eid, end, backends, delta)
            except ValueError:  # no backend (a BackendError), trivial image
                m = None
            if m is None:
                sides.append(None)
            elif v.marking == "hangingFuchsian":
                sides.append(abs(m) == 1 and len(rep.overgroup) == 1)
            else:
                sides.append(rep.E == [()] and (abs(m), len(rep.overgroup))
                             in ((2, 1), (1, 2)))
        if all(s is True for s in sides):
            keep.add(eid)
        elif None in sides:
            warnings.append("edge %d: endpoint verdict unknown, excluded"
                            % eid)
    return keep, warnings


# ---------------------------------------------------------------------------
# split witnesses


@dataclass
class SplitWitness:
    kind: str                 # amalgam | hnn
    q: Presentation           # matched presentation of the whole group
    s1: tuple                 # 1-based generator indices of the first side
    s2: tuple                 # second side (empty for hnn)
    s3: tuple                 # edge generators
    t_index: int = None       # stable letter (hnn)
    iota1: tuple = ()         # per edge generator: image word (q-indexed)
    iota2: tuple = ()
    fwd: tuple = ()           # input generators -> q words
    bwd: tuple = ()           # q generators -> input words
    per_sides: tuple = ()     # per peripheral: (side, q-words, conjugator)

    def to_json(self):
        return json.dumps({
            "kind": self.kind,
            "q": GraphOfGroups._pres_doc(self.q),
            "s1": list(self.s1), "s2": list(self.s2), "s3": list(self.s3),
            "t_index": self.t_index,
            "iota1": [list(w) for w in self.iota1],
            "iota2": [list(w) for w in self.iota2],
            "fwd": [list(w) for w in self.fwd],
            "bwd": [list(w) for w in self.bwd],
            "per_sides": [[side, [list(w) for w in ws], list(c)]
                          for side, ws, c in self.per_sides]}, indent=1)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(d["kind"], GraphOfGroups._pres_from_doc(d["q"]),
                   tuple(d["s1"]), tuple(d["s2"]), tuple(d["s3"]),
                   d["t_index"],
                   tuple(tuple(w) for w in d["iota1"]),
                   tuple(tuple(w) for w in d["iota2"]),
                   tuple(tuple(w) for w in d["fwd"]),
                   tuple(tuple(w) for w in d["bwd"]),
                   tuple((side, tuple(tuple(w) for w in ws), tuple(c))
                         for side, ws, c in d["per_sides"]))


def _sub_presentation(q, gen_indices):
    """Presentation on a subset of q's generators with the relators that
    only involve them, and the translator of q words into its indexing
    (None for a word with a letter outside the subset)."""
    gen_indices = sorted(gen_indices)
    names = tuple(q.generators[i - 1] for i in gen_indices)
    remap = {g_: i + 1 for i, g_ in enumerate(gen_indices)}

    def translate(word):
        if not all(abs(x) in remap for x in word):
            return None
        return tuple(remap[x] if x > 0 else -remap[-x] for x in word)

    rels = tuple(r for r in map(translate, q.relators) if r)
    return Presentation(names, rels, ()), translate


def _sides(w):
    """(presentation, translator) of each side of a witness; an hnn's
    second side is its first."""
    side1 = _sub_presentation(w.q, w.s1)
    if w.kind == "amalgam":
        return side1, _sub_presentation(w.q, w.s2)
    return side1, side1


def _add_fragment(g, w, sides):
    """Add the witness's fragment to g: two vertices joined by an edge
    (amalgam) or one vertex with a loop (hnn).  Returns the side vertex
    ids."""
    (p1, to1), (p2, to2) = sides
    pe, _ = _sub_presentation(w.q, w.s3)
    v1 = g.add_vertex(p1)
    v2 = g.add_vertex(p2) if w.kind == "amalgam" else v1
    g.add_edge(v1, v2, pe, tuple(map(to1, w.iota1)),
               tuple(map(to2, w.iota2)))
    return v1, v2


def verify_split_witness(p, backend, w, peripherals=(), delta=0):
    """The four conditions of the splitting criterion plus the Tietze
    consistency of the presentation q, all replayed from scratch.
    Returns (ok, report)."""
    report = []

    def add(name, ok, detail=""):
        report.append((name, bool(ok), detail))
        return ok

    nq = len(w.q.generators)
    ok_shape = (set(w.s1) | set(w.s2) | set(w.s3) |
                ({w.t_index} if w.t_index else set())) == set(
                    range(1, nq + 1)) and \
        not (set(w.s1) & set(w.s2)) and len(w.bwd) == nq and \
        len(w.fwd) == len(p.generators)
    if not add("shape", ok_shape, "symbol sets partition the generators"):
        return False, report
    ok = all(not backend.normalize(substitute(r, w.bwd))
             for r in w.q.relators)
    add("presentation", ok, "q relators trivial in the group")
    ok = all(backend.normalize(substitute(w.fwd[i], w.bwd))
             == backend.normalize((i + 1,))
             for i in range(len(p.generators)))
    add("retraction", ok, "bwd o fwd is the identity")
    p3, _ = _sub_presentation(w.q, w.s3)
    try:
        be3 = default_backend(p3)
        vc3 = vc_analyze(p3, be3, delta,
                         [(i + 1,) for i in range(len(p3.generators))],
                         budget=ALGEBRA_BOUND)
        add("1-edge-vc", vc3.verdict == "vc", "edge group virtually cyclic")
    except (BackendError, BudgetError) as exc:
        add("1-edge-vc", False, str(exc))
    for idx, ((pv, translate), iota) in enumerate(zip(_sides(w),
                                                       (w.iota1, w.iota2))):
        try:
            bev = default_backend(pv)
        except BackendError as exc:
            add("2-injective", False, "side %d: %s" % (idx + 1, exc))
            continue
        imgs = [translate(word) for word in iota]
        inside = None not in imgs
        okv = inside and all(
            order_of(bev, im, _order_bound(pv, delta)) is None
            for im in imgs)
        add("2-injective", okv,
            "side %d edge images have infinite order" % (idx + 1))
        if w.kind == "amalgam":
            ok3 = inside and not images_generate_abelianization(pv, imgs)
            add("3-nonsurjective", ok3,
                "side %d image misses the abelianization" % (idx + 1))
    for i, (side, qwords, c) in enumerate(w.per_sides):
        sgens = set(w.s1 if side == 1 else w.s2) | set(w.s3)
        ok = all({abs(x) for x in qw} <= sgens for qw in qwords)
        name, words = peripherals[i]
        ok = ok and len(words) == len(qwords) and all(
            backend.equal(conjugate(tuple(c), substitute(qw, w.bwd)),
                          tuple(pw))
            for qw, pw in zip(qwords, words))
        add("4-peripheral", ok, "peripheral %s conjugates into side %d"
            % (name, side))
    if len(w.per_sides) != len(peripherals):
        add("4-peripheral", False, "peripheral count mismatch")
    return all(okc for _, okc, _ in report), report


def _order_bound(p, delta):
    """Upper bound for torsion orders: the free ball is at least as large
    as the group ball of radius 4*delta+2 (capped for sanity)."""
    n = len(p.generators)
    total = 1
    layer = 1
    for _ in range(4 * delta + 2):
        layer *= max(1, 2 * n - 1) if total > 1 else 2 * n
        total += layer
        if total > 20000:
            return 20000
    return total


def witness_to_gog(w):
    """Replacement fragment: two vertices and an edge (amalgam) or one
    vertex with a loop (hnn).  Returns (graph, side vertex ids)."""
    g = GraphOfGroups()
    return g, _add_fragment(g, w, _sides(w))


# ---------------------------------------------------------------------------
# split search


def split_search(p, peripherals, backend, budget=50, planted=()):
    """Drive the presentation enumeration (optionally with planted
    candidates first) and pattern-match the amalgam and HNN shapes,
    checking the four splitting conditions.  Semi-decision: exhaustion
    is none-in-budget."""
    from .features import SearchOutcome
    stats = {"candidates": 0}
    stream = itertools.chain(
        planted, enumerate_tietze(p, backend))
    for item in itertools.islice(stream, budget):
        stats["candidates"] += 1
        if isinstance(item, SplitWitness):
            candidates = (item,)
        else:
            candidates = _pattern_matches(item, peripherals)
        for w in candidates:
            ok, report = verify_split_witness(p, backend, w, peripherals)
            if ok:
                return SearchOutcome("found", w, stats)
    return SearchOutcome("none-in-budget", stats=stats)


def _pattern_matches(item, peripherals):
    q = item.presentation
    n = len(q.generators)
    rel_ix = list(enumerate(q.relators))
    # amalgam shape: a generator z with exactly two defining relators
    # z^-1 w1, z^-1 w2 over disjoint symbol sets
    for z in range(1, n + 1):
        zr = [(i, r) for i, r in rel_ix
              if len(r) >= 2 and r[0] == -z
              and all(abs(x) != z for x in r[1:])]
        if len(zr) != 2:
            continue
        (i1, r1), (i2, r2) = zr
        w1, w2 = r1[1:], r2[1:]
        a_set = {abs(x) for x in w1}
        b_set = {abs(x) for x in w2}
        if not a_set or not b_set or (a_set & b_set):
            continue
        others = [r for i, r in rel_ix if i not in (i1, i2)]
        rest = sorted(set(range(1, n + 1)) - a_set - b_set - {z})
        if len(rest) > MAX_FREE_ASSIGN:
            continue
        for assign in itertools.product((0, 1), repeat=len(rest)):
            s1 = set(a_set)
            s2 = set(b_set)
            for g_, side in zip(rest, assign):
                (s1 if side == 0 else s2).add(g_)
            if not all({abs(x) for x in r} <= s1
                       or {abs(x) for x in r} <= s2 for r in others):
                continue
            per_sides = _peripheral_sides(item, peripherals,
                                          (sorted(s1), sorted(s2)), {z})
            if per_sides is None:
                continue
            yield SplitWitness("amalgam", q, tuple(sorted(s1)),
                               tuple(sorted(s2)), (z,), None,
                               (w1,), (w2,),
                               tuple(item.forward), tuple(item.backward),
                               per_sides)
            break
    # hnn shape: a generator t appearing exactly once positively and once
    # negatively in a single relator t w1 t^-1 w2^-1
    for t in range(1, n + 1):
        touching = [(i, r) for i, r in rel_ix
                    if any(abs(x) == t for x in r)]
        if len(touching) != 1:
            continue
        i0, r = touching[0]
        pos = [j for j, x in enumerate(r) if x == t]
        neg = [j for j, x in enumerate(r) if x == -t]
        if len(pos) != 1 or len(neg) != 1:
            continue
        # rotate so the relator starts with t
        rot = r[pos[0]:] + r[:pos[0]]
        k = rot.index(-t)
        w1 = rot[1:k]
        w2 = inverse_word(rot[k + 1:])
        s1 = sorted(set(range(1, n + 1)) - {t})
        if not w1 or not w2:
            continue
        if ({abs(x) for x in w1} | {abs(x) for x in w2}) - set(s1):
            continue
        per_sides = _peripheral_sides(item, peripherals, (s1, s1), set())
        if per_sides is None:
            continue
        yield SplitWitness("hnn", q, tuple(s1), (), (t,), t,
                           (w1,), (w2,),
                           tuple(item.forward), tuple(item.backward),
                           per_sides)


def _peripheral_sides(item, peripherals, side_sets, s3):
    """Transport each peripheral through the Tietze maps and find a side
    whose symbols contain it (after free reduction)."""
    out = []
    for name, words in peripherals:
        qwords = [free_reduce(substitute(tuple(w), item.forward))
                  for w in words]
        placed = None
        for side, sgens in enumerate(side_sets, start=1):
            if all({abs(x) for x in qw} <= set(sgens) | s3 for qw in qwords):
                placed = (side, tuple(qwords), ())
                break
        if placed is None:
            return None
        out.append(placed)
    return tuple(out)


# ---------------------------------------------------------------------------
# relative splitting decision


@dataclass
class SplitDecision:
    answer: str              # splits | no-splits | exhausted
    reason: str = ""
    witness: object = None
    marking: str = "unknown"
    trace: tuple = ()
    window_insufficient: bool = False


def seed_key(p, peripherals=()):
    """Stable lookup key for a relative presentation, independent of the
    namespace prefixes the graph machinery attaches to generator names."""
    gens = tuple(strip_ns(g_) for g_ in p.generators)
    pers = tuple(tuple(tuple(w) for w in words) for _, words in peripherals)
    return repr((gens, tuple(p.relators), pers))


def _vc_screen(p, backend, delta, trace):
    """Cheap certificate first (abelianized rank >= 2 rules out virtually
    cyclic), then the interleaved search."""
    if abelianization_rank(p) >= 2:
        trace.append("VC?no")
        return "not-vc", None
    try:
        rep = vc_analyze(p, backend, delta,
                         [(i + 1,) for i in range(len(p.generators))],
                         budget=ALGEBRA_BOUND)
    except (BackendError, BudgetError):
        trace.append("VC?unknown")
        return "unknown", None
    trace.append("VC?%s" % {"vc": "yes", "not-vc": "no"}.get(rep.verdict,
                                                            "unknown"))
    return rep.verdict, rep


def _small_orbifold_step(p, peripherals, backend, delta, trace):
    out = small_orbifold_match(p, [(name, tuple(ws))
                                   for name, ws in peripherals],
                               backend, budget=ORBIFOLD_ROUNDS,
                               delta=delta)
    if out.verdict == "found":
        trace.append("SmallOrbifold?yes")
        return SplitDecision("no-splits", "small orbifold", out.feature,
                             "hangingFuchsian", tuple(trace))
    trace.append("SmallOrbifold?no")
    return SplitDecision("exhausted",
                         "boundary circle but no orbifold model in budget",
                         None, "unknown", tuple(trace))


def decide_split_relative(p, peripherals=(), budget=24, seeds=None,
                          geometry=None, delta=0):
    """One round of the decision flow for a relative presentation: the
    virtually-cyclic gate, seeded facts (verified and labelled), the
    splitting search, and the geometric boundary leg when a cusped space
    and constant table are supplied as geometry=(space, table, n_cap).
    budget counts split-search and feature-search candidates only.
    The window's backend is reused when the window is of p itself;
    otherwise p gets its own.  Every non-answer is an explicit
    exhaustion, including a presentation that no word-problem backend
    accepts."""
    trace = ["Start"]
    try:
        backend = geometry[0].backend if geometry is not None and \
            geometry[0].presentation == p else default_backend(p)
    except BackendError as exc:
        return SplitDecision("exhausted", "no word-problem backend: %s" % exc,
                             None, "unknown", tuple(trace))
    vc, vc_rep = _vc_screen(p, backend, delta, trace)
    if vc == "vc":
        return SplitDecision("no-splits", "virtually cyclic", vc_rep,
                             "vc", tuple(trace))

    entry = (seeds or {}).get(seed_key(p, peripherals))
    if entry is not None:
        if "witness" in entry:
            w = SplitWitness.from_json(entry["witness"])
            ok, report = verify_split_witness(p, backend, w, peripherals,
                                              delta=delta)
            if ok:
                trace.append("seed:witness-verified")
                return SplitDecision("splits", "verified splitting witness",
                                     w, "unknown", tuple(trace))
            trace.append("seed:witness-rejected")
        elif entry.get("circle"):
            trace.append("seed:circle")
            return _small_orbifold_step(p, peripherals, backend, delta,
                                        trace)
        elif entry.get("answer") == "no-splits":
            trace.append("seed:no-splits")
            return SplitDecision("no-splits",
                                 "seeded, not independently verified",
                                 None, entry.get("marking", "rigid"),
                                 tuple(trace))

    out = split_search(p, peripherals, backend, budget=budget)
    if out.verdict == "found":
        trace.append("SplitSearch?found")
        return SplitDecision("splits", "splitting witness found", out.feature,
                             "unknown", tuple(trace))
    trace.append("SplitSearch?none")

    if geometry is not None:
        from .features import decide_circle
        space, table, n_cap = geometry
        verdict = decide_circle(space, table, budget=budget, n_cap=n_cap,
                                vc_report=vc_rep)
        trace.append("Circle?%s" % verdict.answer)
        if verdict.answer == "yes":
            return _small_orbifold_step(p, peripherals, backend, delta,
                                        trace)
        if verdict.answer == "no":
            return SplitDecision("no-splits", "boundary is not a circle",
                                 verdict, "rigid", tuple(trace))
        return SplitDecision(
            "exhausted", "boundary probe: %s" % verdict.answer, verdict,
            "unknown", tuple(trace),
            window_insufficient=(verdict.answer == "window-insufficient"))

    return SplitDecision("exhausted", "no witness within budget", None,
                         "unknown", tuple(trace))


# ---------------------------------------------------------------------------
# maximal splitting


def _replace_vertex(g, vid, w, rel_pers, extra_pers):
    """Replace a vertex by the two-vertex (or loop) fragment of a verified
    splitting witness and reattach incident edges through the witness's
    peripheral placements.  Returns the new vertex ids or None when a
    placement cannot be expressed inside its side group."""
    sides = _sides(w)
    plan = []
    for (tag, _), (side, qwords, _) in zip(rel_pers, w.per_sides):
        _, translate = sides[side - 1]
        words = tuple(map(translate, qwords))
        if None in words:
            return None
        plan.append((tag, side, words))

    va, vb = _add_fragment(g, w, sides)
    new_ids = {1: va, 2: vb}

    for tag, side, words in plan:
        if tag[0] == "edge":
            eid, end = tag[1], tag[2]
            e = g.edges[eid]
            if end == "source":
                e.source, e.inj_source = new_ids[side], words
            else:
                e.target, e.inj_target = new_ids[side], words
        else:
            extra_pers.setdefault(new_ids[side], []).append((tag[1], words))
    del g.vertices[vid]
    return va, vb


def _relative_peripherals(g, vid, extra_pers):
    """(tag, (name, words)) pairs: the vertex's own peripheral constraints
    followed by the incident edge images."""
    out = [(("extra", name), (name, words))
           for name, words in extra_pers.get(vid, [])]
    for eid in sorted(g.edges):
        e = g.edges[eid]
        if e.source == vid:
            out.append((("edge", eid, "source"),
                        ("edge%d" % eid, tuple(e.inj_source))))
        if e.target == vid:
            out.append((("edge", eid, "target"),
                        ("edge%d" % eid, tuple(e.inj_target))))
    return out


def maximal_splitting(p, peripherals=(), budget=24, seeds=None, delta=0,
                      geometry=None):
    """Iteratively split vertex groups (relative to their incident edge
    groups and inherited peripheral structure) until every vertex is
    certified unsplittable or budgets run out.  Returns (graph, report);
    report['partial'] is True when some vertex ended undecided."""
    g = GraphOfGroups()
    v0 = g.add_vertex(p)
    extra_pers = {v0: [(name, tuple(tuple(w) for w in words))
                       for name, words in peripherals]}
    decided = {}
    log = []
    partial = False
    passes = 0
    for _ in range(MAX_PASSES):
        passes += 1
        progressed = False
        for vid in sorted(g.vertices):
            if vid in decided:
                continue
            rel = _relative_peripherals(g, vid, extra_pers)
            pers = tuple(pair for _, pair in rel)
            pv = g.vertices[vid].presentation
            dec = decide_split_relative(pv, pers, budget=budget, seeds=seeds,
                                        delta=delta, geometry=geometry)
            log.append((vid, dec.answer, dec.reason, dec.trace))
            if dec.answer == "splits":
                new_ids = _replace_vertex(g, vid, dec.witness, rel,
                                          extra_pers)
                if new_ids is None:
                    decided[vid] = "unknown"
                    g.vertices[vid].marking = "unknown"
                    log.append((vid, "exhausted",
                                "peripheral not expressible in a side",
                                dec.trace))
                    partial = True
                else:
                    extra_pers.pop(vid, None)
                    progressed = True
            elif dec.answer == "no-splits":
                decided[vid] = dec.marking
                g.vertices[vid].marking = dec.marking
            else:
                decided[vid] = "unknown"
                g.vertices[vid].marking = "unknown"
                partial = True
                if dec.window_insufficient:
                    return g, {"passes": passes, "log": log, "partial": True,
                               "window_insufficient": True}
        if not progressed:
            break
    report = {"passes": passes, "log": log, "partial": partial,
              "window_insufficient": False}
    return g, report


# ---------------------------------------------------------------------------
# full pipelines


def assemble_jsj(p, flavor="vc", peripherals=(), budget=24, seeds=None,
                 delta=0, geometry=None):
    """Maximal splitting followed by the flavor-specific normalisation:
    collapse of internal surface-type edges (vc flavor), the
    tree-of-cylinders pass (z), and the root-absorbing fold on top (zmax).
    Returns (graph, artifacts)."""
    if flavor not in ("vc", "z", "zmax"):
        raise ValueError("unknown decomposition flavor: %r" % flavor)
    g, report = maximal_splitting(p, peripherals, budget=budget, seeds=seeds,
                                  delta=delta, geometry=geometry)
    artifacts = {"maximal": g.copy(), "report": report, "warnings": []}
    g.flavor = flavor
    if flavor == "vc":
        edges, warns = internal_surface_edges(g, delta=delta)
        artifacts["warnings"] += warns
        artifacts["internal_surface_edges"] = sorted(edges)
        if edges:
            g = collapse_edges(g, edges)
            for v in g.vertices.values():
                if v.marking == "unknown":
                    v.marking = "hangingFuchsian"
            g.flavor = flavor
        artifacts["result"] = g
        return g, artifacts
    try:
        g = tree_of_cylinders(g, delta=delta)
    except (BudgetError, ValueError) as exc:  # BackendError is a ValueError
        artifacts["warnings"].append("tree of cylinders skipped: %s" % exc)
    g.flavor = flavor
    if flavor == "zmax":
        g, warns = zmax_fold(g, delta=delta)
        artifacts["warnings"] += warns
        g.flavor = flavor
    artifacts["result"] = g
    return g, artifacts

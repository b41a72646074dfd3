"""Annular neighbourhood decompositions around paths.

For a path gamma in a window: N_{r,R} is the set of vertices whose
distance to gamma lies in [r, R]; C_K the distance-K shell; A the union
of those connected components of N_{r,R} that meet C_K; and the hot set
of a thick vertex v the part of C_K within T of v.  Window distances are
integers, so the shells compare them with integer bounds: ceil(r) <= d
<= floor(R), and d = K only when K is integral (C_K is empty otherwise).
This module alone builds the shells and the hot sets, and reads them
off a Balls memo: B_t(gamma) is the union of the balls of gamma's
vertices, and the memo runs one cut-off BFS per vertex, so a search
that keeps one runs one per distinct path vertex.  A BFS cut off at a
radius gives exact distances up to it: the stability check reads the
annuli at R and at R2 from one map.  A BFS from a union of sources is
the pointwise minimum of the BFSs from its parts.  The horseshoe variant
hats gamma with vertical rays at both ends and removes the deep part of
the tails' R-neighbourhood; its map is the minimum of one BFS from the
tails, which also gives that neighbourhood, and one from the middle of
gamma.  Only annulus_decompose scans N, C_K and gamma for the window
boundary, the caveat that cut-point detection reads.  Connectivity is
graph connectivity of the window's 1-skeleton using all edge kinds: each
component is found by one graph search over space.adjacency(), from its
least vertex, and keyed by that vertex id.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .geometry import bfs_distances
from .hyperbolicity import ceil_frac, floor_frac


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smallest id wins so labels are deterministic
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _components(space, vertex_set):
    """The connected components of the subgraph vertex_set spans, as
    least vertex id -> frozenset, in ascending order of that id.  One
    search per component, from its least vertex, over the neighbours
    inside vertex_set."""
    adj = space.adjacency()
    rest = set(vertex_set)
    comps = {}
    for s in sorted(vertex_set):
        if s not in rest:
            continue
        rest.remove(s)
        comp = [s]
        for v in comp:      # comp grows as the search reaches vertices
            for u in adj[v]:
                if u in rest:
                    rest.remove(u)
                    comp.append(u)
        comps[s] = frozenset(comp)
    return comps


def _reach(K, R):
    """The cutoff of a BFS from a path that serves the shells at K and R."""
    return int(max(Fraction(R), Fraction(K)))


class Balls(dict):
    """B_t(v) for single vertices v as balls[v][t], for t up to radius,
    the largest that shells at K, R and hot_set at T read: one BFS from
    v, cut off at radius, run on first use and kept."""

    def __init__(self, space, K, R, T=0):
        super().__init__()
        self.space = space
        self.radius = max(_reach(K, R), floor_frac(T))

    def __missing__(self, v):
        dist = bfs_distances(self.space, [v], self.radius)
        ball = self[v] = [{u for u, d in dist.items() if d <= t}
                          for t in range(self.radius + 1)]
        return ball

    def within(self, sources, t):
        """B_t(sources) for t <= radius, the union of their balls."""
        return set().union(*([self[s][t] for s in sources] if t >= 0 else []))


def shells(space, path, a, b, r, K, R, balls=None):
    """X = N_{r,R}(gamma) /\\ N_R(gamma[a,b]) and C_K(gamma) for a vertex
    id path gamma: B_R(gamma[a,b]) - B_{r-1}(gamma) and B_K(gamma) -
    B_{K-1}(gamma), off balls made for K, R or more (fresh when None)."""
    if balls is None:
        balls = Balls(space, K, R)
    lo, hi, K = ceil_frac(r), floor_frac(R), Fraction(K)
    X = balls.within(path[a:b + 1], hi) - balls.within(path, min(lo - 1, hi))
    k = K.numerator if K.denominator == 1 else -1  # else C_K is empty
    return X, balls.within(path, k) - balls.within(path, k - 1)


def hot_set(space, CK, v, T, balls=None):
    """C_K /\\ B_T(v), off balls made for T or more (fresh when None)."""
    if balls is None:
        balls = Balls(space, 0, 0, T)
    return CK & balls.within([v], floor_frac(T))


@dataclass(frozen=True)
class AnnulusDecomposition:
    N: set
    CK: set
    components: dict          # least vertex id -> frozenset, components of N
    a_roots: tuple            # keys of the components meeting C_K
    caveat: bool = None       # gamma, N or C_K meets the window boundary;
                              # only annulus_decompose scans for it

    @property
    def a_vertices(self):
        out = set()
        for root in self.a_roots:
            out |= self.components[root]
        return out


def _decompose(space, dist, r, K, R):
    """The annulus decomposition around a path, read off dist, a distance
    map from the path exact up to at least _reach(K, R).  It leaves the
    caveat unscanned."""
    lo, hi, K = ceil_frac(r), floor_frac(R), Fraction(K)
    k = K.numerator if K.denominator == 1 else None
    N = {v for v, d in dist.items() if lo <= d <= hi}
    CK = {v for v, d in dist.items() if d == k}
    comps = _components(space, N)
    a_roots = tuple(sorted(
        root for root, comp in comps.items() if comp & CK))
    return AnnulusDecomposition(N, CK, comps, a_roots)


def annulus_decompose(space, gamma, r, K, R):
    """Decompose the annulus around gamma (a vertex id path) within the
    window, with the caveat set when gamma, N or C_K meets the window
    boundary.  r, K, R may be exact rationals (see shells)."""
    gamma = tuple(gamma)
    if not gamma:
        raise ValueError("empty path")
    dist = bfs_distances(space, sorted(set(gamma)), cutoff=_reach(K, R))
    dec = _decompose(space, dist, r, K, R)
    touched = set(gamma) | dec.N | dec.CK
    return replace(dec, caveat=any(space.boundary_vertex(v)
                                   for v in touched))


def component_count_stability(space, gamma, r, K, R, R2):
    """Do the A-components at outer radius R and at R2 >= R correspond
    bijectively (equal counts, and inclusion of each R-component in a
    distinct R2-component, with matching C_K memberships)?  One BFS from
    gamma, cut off at R2 or K, serves both radii."""
    if Fraction(R2) < Fraction(R):
        raise ValueError("R2 must be >= R")
    gamma = tuple(gamma)
    if not gamma:
        raise ValueError("empty path")
    dist = bfs_distances(space, sorted(set(gamma)), cutoff=_reach(K, R2))
    d1 = _decompose(space, dist, r, K, R)
    d2 = _decompose(space, dist, r, K, R2)
    if len(d1.a_roots) != len(d2.a_roots):
        return False
    image = set()
    for root in d1.a_roots:
        comp = d1.components[root]
        targets = {r2 for r2 in d2.a_roots if comp & d2.components[r2]}
        if len(targets) != 1:
            return False
        image |= targets
    return len(image) == len(d1.a_roots)


@dataclass(frozen=True)
class HorseshoeDecomposition:
    depth: int                # common endpoint height
    components: dict          # components of A' = A - excluded

    @property
    def connected(self):
        return len(self.components) == 1

    @property
    def empty(self):
        return not self.components


def horseshoe_decompose(space, gamma, r, K, R):
    """The A' decomposition for a horseshoe segment: endpoints at equal
    horoball height, hatted with vertical rays to the window top; A'
    removes, from A around the hatted path, the vertices at height >= the
    endpoint height lying within R of the vertical tails."""
    gamma = tuple(gamma)
    if len(gamma) < 2:
        raise ValueError("degenerate horseshoe segment (a = b)")
    ha = space.height(gamma[0])
    hb = space.height(gamma[-1])
    if ha != hb:
        raise ValueError("endpoint heights differ: %d vs %d" % (ha, hb))
    if ha == 0:
        raise ValueError("horseshoe endpoints must lie in a horoball")
    tail_a = _up_ray(space, gamma[0])
    tail_b = _up_ray(space, gamma[-1])
    # the BFS from the hatted path (tail_a reversed, the middle
    # gamma[1:-1], tail_b) is the pointwise minimum of the BFSs from the
    # tails and from the middle; the tails' alone gives the exclusion
    reach, hi = _reach(K, R), floor_frac(R)
    dist = bfs_distances(space, sorted(set(tail_a) | set(tail_b)),
                         cutoff=reach)
    excluded = {v for v, d in dist.items()
                if d <= hi and space.height(v) >= ha}
    if len(gamma) > 2:
        for v, d in bfs_distances(space, sorted(set(gamma[1:-1])),
                                  cutoff=reach).items():
            if d < dist.get(v, reach + 1):
                dist[v] = d
    ann = _decompose(space, dist, r, K, R)
    comps = _components(space, ann.a_vertices - excluded)
    return HorseshoeDecomposition(ha, comps)


def _up_ray(space, vid):
    """Vertical ray from a horoball vertex up to the window top."""
    _, hv = space.describe(vid)
    return [space.horo_id(hv.peripheral, hv.coset, hv.offset, k)
            for k in range(hv.height, space.h_max + 1)]


"""Annular neighbourhood decompositions around paths.

For a path gamma in a window: N_{r,R} is the set of vertices whose
distance to gamma lies in [r, R]; C_K the distance-K shell; A the union
of those connected components of N_{r,R} that meet C_K.  The horseshoe
variant hats gamma with vertical rays at both ends and removes the deep
part of the tails' R-neighbourhood.  Connectivity is graph connectivity
of the window's 1-skeleton using all edge kinds.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import bfs_distances


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
    uf = UnionFind(vertex_set)
    for v in vertex_set:
        for u in space.neighbors(v):
            if u in vertex_set:
                uf.union(v, u)
    comps = {}
    for v in vertex_set:
        comps.setdefault(uf.find(v), set()).add(v)
    return {root: frozenset(vs) for root, vs in comps.items()}


@dataclass(frozen=True)
class AnnulusDecomposition:
    gamma: tuple
    r: object
    K: object
    R: object
    dist_to_gamma: dict
    N: frozenset
    CK: frozenset
    components: dict          # root -> frozenset, components of N
    a_roots: tuple            # roots of components meeting C_K
    marker_hits: dict         # root -> tuple of marker indices t with
                              # component /\ C_K /\ B_T(gamma(t)) nonempty
    caveat: bool

    @property
    def a_vertices(self):
        out = set()
        for root in self.a_roots:
            out |= self.components[root]
        return out

    def component_of(self, v):
        for root, comp in self.components.items():
            if v in comp:
                return root
        return None


def annulus_decompose(space, gamma, r, K, R, T=None, markers=None):
    """Decompose the annulus around gamma (a vertex id path) within the
    window.  r, K, R may be exact rationals; shell membership compares
    integer BFS distances against them exactly.  When T is given, each
    A-component is tagged with the marker positions t (indices into
    gamma, thick vertices only unless markers specifies otherwise) whose
    T-ball around gamma(t) meets the component's C_K vertices."""
    gamma = tuple(gamma)
    if not gamma:
        raise ValueError("empty path")
    cutoff = int(max(Fraction(R), Fraction(K)))
    dist = bfs_distances(space, sorted(set(gamma)), cutoff=cutoff)
    N = frozenset(v for v, d in dist.items()
                  if Fraction(r) <= d <= Fraction(R))
    CK = frozenset(v for v, d in dist.items() if d == Fraction(K))
    comps = _components(space, N)
    a_roots = tuple(sorted(
        root for root, comp in comps.items() if comp & CK))
    marker_hits = {root: () for root in a_roots}
    if T is not None:
        if markers is None:
            markers = [t for t, v in enumerate(gamma) if space.height(v) == 0]
        for t in markers:
            ball_t = bfs_distances(space, [gamma[t]], cutoff=int(Fraction(T)))
            hot = CK & set(ball_t)
            for root in a_roots:
                if comps[root] & hot:
                    marker_hits[root] = marker_hits[root] + (t,)
    touched = set(gamma) | N | CK
    caveat = any(space.boundary_vertex(v) for v in touched)
    return AnnulusDecomposition(gamma, r, K, R, dist, N, CK, comps,
                                a_roots, marker_hits, caveat)


def component_count_stability(space, gamma, r, K, R, R2, T=None):
    """Do the A-components at outer radius R and at R2 >= R correspond
    bijectively (equal counts, and inclusion of each R-component in a
    distinct R2-component, with matching C_K memberships)?"""
    if Fraction(R2) < Fraction(R):
        raise ValueError("R2 must be >= R")
    d1 = annulus_decompose(space, gamma, r, K, R, T)
    d2 = annulus_decompose(space, gamma, r, K, R2, T)
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
    gamma: tuple
    gamma_hat: tuple
    depth: int                # common endpoint height
    annulus: AnnulusDecomposition
    excluded: frozenset
    components: dict          # components of A' = A - excluded
    caveat: bool

    @property
    def vertices(self):
        out = set()
        for comp in self.components.values():
            out |= comp
        return out

    @property
    def connected(self):
        return len(self.components) == 1

    @property
    def empty(self):
        return not self.components


def horseshoe_decompose(space, gamma, r, K, R, min_depth=None):
    """The A' decomposition for a horseshoe segment: endpoints at equal
    horoball height (at least min_depth when given), hatted with vertical
    rays to the window top; A' removes, from A around the hatted path,
    the vertices at height >= the endpoint height lying within R of the
    vertical tails."""
    gamma = tuple(gamma)
    if len(gamma) < 2:
        raise ValueError("degenerate horseshoe segment (a = b)")
    ha = space.height(gamma[0])
    hb = space.height(gamma[-1])
    if ha != hb:
        raise ValueError("endpoint heights differ: %d vs %d" % (ha, hb))
    if ha == 0:
        raise ValueError("horseshoe endpoints must lie in a horoball")
    if min_depth is not None and ha < min_depth:
        raise ValueError(
            "endpoint height %d below required depth %s" % (ha, min_depth))
    tail_a = _up_ray(space, gamma[0])
    tail_b = _up_ray(space, gamma[-1])
    gamma_hat = tuple(reversed(tail_a)) + gamma[1:-1] + tuple(tail_b)
    ann = annulus_decompose(space, gamma_hat, r, K, R)
    tails = sorted(set(tail_a) | set(tail_b))
    near_tails = bfs_distances(space, tails, cutoff=int(Fraction(R)))
    excluded = frozenset(v for v in near_tails
                         if space.height(v) >= ha
                         and Fraction(near_tails[v]) <= Fraction(R))
    core = ann.a_vertices - excluded
    comps = _components(space, core)
    caveat = ann.caveat
    return HorseshoeDecomposition(gamma, gamma_hat, ha, ann, excluded,
                                  comps, caveat)


def _up_ray(space, vid):
    """Vertical ray from a horoball vertex up to the window top."""
    _, hv = space.describe(vid)
    return [space.horo_id(hv.peripheral, hv.coset, hv.offset, k)
            for k in range(hv.height, space.h_max + 1)]


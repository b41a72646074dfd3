"""The benchmark's four workloads: their fixed make-up and their seeded inputs.

`make_inputs(name, seed)` returns a JSON-able dict that fully describes
one run's inputs.  The same seed always gives the same dict.  Seeds vary
only those parts of an input that leave the amount of work unchanged
(which rotation of the genus-2 relator, which vertices a query joins at a
fixed distance, where a ray stands), so that run-to-run spread comes from
the machine and not from the inputs.
"""

import random

NAMES = ("genus2-window", "free-window", "line-horoball", "orbifold-jsj")

# constant files in the `.const` format the CLI reads: `name = value`,
# unknown names are overrides
PAPER_CONST = {"delta": 1, "B": 3, "V": 5}
TREE_CONST = {"delta": 0, "n": 4, "B": 3, "V": 4, "kd": 0, "Kd": 1}
F2_FEATURES = {"delta": 0, "n": 4, "B": 3, "V": 4,
               "r": 1, "K": 1, "R": 2, "T": 2, "k": 0, "rho": 1, "eta": 1,
               "N_min": 2, "N_max": 4, "N1": 2, "N2": 2, "N3": 2}
LINE_CUT_POINT = {"delta": 0, "n": 4, "B": 3, "V": 4,
                  "r": 2, "K": 2, "R": 3, "T": 2, "k": 2, "rho": 1,
                  "eta": 1, "N_min": 2, "N_max": 6, "N1": 2, "N2": 2,
                  "N3": 6}
LINE_HORSESHOE = {"delta": 0, "n": 4, "B": 3, "V": 4,
                  "r": 1, "K": 1, "R": 2, "T": 2, "k": 2, "rho": 1,
                  "eta": 1, "N_min": 2, "N_max": 6, "N1": 0, "N2": 0,
                  "N3": 8}

FREE_R = 8
LINE_R, LINE_H = 64, 8
# free-window distance queries: (shared prefix, length of each word);
# the distance is 2 * (length - prefix)
FREE_QUERY_SHAPES = [(c, 4) for c in (0, 0, 0, 1, 1, 2, 2, 3)] + \
                    [(c, 3) for c in (0, 0, 1, 2)]
# line-horoball distance queries: gaps between the two thick points
LINE_GAPS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
# line-horoball stability rays: (r, K, R, R2) annulus parameters
LINE_RAYS = ((2, 2, 3, 4), (2, 2, 3, 5), (2, 2, 4, 5), (2, 2, 4, 6),
             (2, 2, 5, 6), (2, 2, 5, 7))

G2_RELATOR = "abABcdCD"


def const_text(values):
    return "".join("%s = %s\n" % (k, v) for k, v in values.items())


def _flip_case(text):
    return "".join(ch.lower() if ch.isupper() else ch.upper() for ch in text)


def _genus2(rng):
    # a rotation of the relator, possibly inverted: the symmetrized
    # relator set, and so the Dehn backend and the ball, are unchanged
    word = G2_RELATOR
    if rng.random() < 0.5:
        word = _flip_case(word[::-1])
    k = rng.randrange(len(word))
    word = word[k:] + word[:k]
    return {"grp": "gen a b c d\nrel %s\n" % word,
            "const": const_text(PAPER_CONST),
            "window": "3,1", "budget": 12}


def _reduced_word(rng, length, avoid_first=None):
    letters = [1, -1, 2, -2]
    out = []
    while len(out) < length:
        x = rng.choice(letters)
        if out and out[-1] == -x:
            continue
        if not out and avoid_first is not None and x == avoid_first:
            continue
        out.append(x)
    return out


def _free(rng):
    queries = []
    for prefix_len, length in FREE_QUERY_SHAPES:
        prefix = _reduced_word(rng, prefix_len)
        while True:
            tx = _reduced_word(rng, length - prefix_len)
            ty = _reduced_word(rng, length - prefix_len)
            if prefix and (tx[0] == -prefix[-1] or ty[0] == -prefix[-1]):
                continue
            if tx and ty and tx[0] == ty[0]:
                continue
            break
        queries.append([prefix + tx, prefix + ty])
    return {"grp": "gen a b\n", "R": FREE_R,
            "const": const_text(TREE_CONST),
            "feature_const": const_text(F2_FEATURES),
            "budget": 12, "delta_radius": 2, "ddag_n_cap": 4,
            "cut_budget": 5000, "noncut_budget": 500000,
            "queries": queries}


def _line(rng):
    queries = []
    for gap in LINE_GAPS:
        lo = -LINE_R
        hi = LINE_R - gap
        x = rng.randint(lo, hi)
        queries.append([x, x + gap] if rng.random() < 0.5 else [x + gap, x])
    rays = [[rng.randint(-16, 16)] + list(params) for params in LINE_RAYS]
    return {"grp": "gen a\nper P = a\n", "R": LINE_R, "h": LINE_H,
            "cut_point_const": const_text(LINE_CUT_POINT),
            "horseshoe_const": const_text(LINE_HORSESHOE),
            "horseshoe_budget": 500000,
            "queries": queries, "rays": rays}


def _orbifold(rng):
    # no seeded part: the catalogue inputs and the criterion-10 seeds are
    # fixed, so every seed gives the same run
    del rng
    return {"matches": [
                {"name": "pants",
                 "grp": "gen a b\nper P = a\nper Q = b\nper R = ab\n",
                 "budget": 2},
                {"name": "disc-3-5",
                 "grp": "gen a b\nrel aaa\nrel bbbbb\nper P = ab\n",
                 "budget": 2},
                {"name": "free-rel-a", "grp": "gen a b\nper P = a\n",
                 "budget": 3}],
            "jsj_grp": "gen a b c d\nrel %s\n" % G2_RELATOR,
            "jsj_budget": 24, "flavors": ["vc", "z", "zmax"]}


_MAKERS = {"genus2-window": _genus2, "free-window": _free,
           "line-horoball": _line, "orbifold-jsj": _orbifold}


def make_inputs(name, seed):
    rng = random.Random("%s:%d" % (name, seed))
    inputs = _MAKERS[name](rng)
    inputs["workload"] = name
    inputs["seed"] = seed
    return inputs

"""Group presentations, words, and checkable word-problem backends.

A word is a tuple of nonzero ints: ``i > 0`` means generator number ``i``
(1-based), ``-i`` its inverse.  In text form lowercase letters are
generators, uppercase letters their inverses, and juxtaposition is the
product, so ``"abAB"`` is the commutator of the first two generators.

Three word-problem backends are provided.  Each must be validated before
use: the free backend accepts only relator-free presentations, the Dehn
backend checks a syntactic metric small-cancellation condition on the
symmetrized relators, and the rewriting backend checks that a supplied
shortlex-reducing rule set has confluent critical pairs.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import itertools

Word = tuple  # tuple of nonzero ints

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class ParseError(ValueError):
    """Raised on malformed presentation text; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class BackendError(ValueError):
    """Raised when a backend is used unvalidated or cannot be built."""


# ---------------------------------------------------------------------------
# basic word operations


def free_reduce(word):
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_word(word):
    return tuple(-x for x in reversed(word))


def concat(*words):
    out = []
    for w in words:
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def conjugate(g, w):
    """g w g^-1, freely reduced."""
    return concat(g, w, inverse_word(g))


def cyclic_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def rotations(word):
    """All cyclic rotations of a word."""
    return [word[i:] + word[:i] for i in range(max(1, len(word)))]


def letter_key(x):
    # a < A < b < B < ...: positive letter sorts just before its inverse
    return 2 * (abs(x) - 1) + (0 if x > 0 else 1)


def shortlex_key(word):
    return (len(word), tuple(letter_key(x) for x in word))


def words_shortlex(n_gens, max_len, include_empty=True, reduced=True):
    """Yield words over n_gens generators in shortlex order up to max_len.

    With reduced=True only freely reduced words are produced.
    """
    letters = sorted(
        [i for i in range(1, n_gens + 1)] + [-i for i in range(1, n_gens + 1)],
        key=letter_key,
    )
    if include_empty:
        yield ()
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in letters:
                if reduced and w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        for w in nxt:
            yield w
        frontier = nxt


def substitute(word, images):
    """Replace generator i by images[i-1] (a word); freely reduce."""
    out = []
    for x in word:
        img = images[abs(x) - 1]
        if x < 0:
            img = inverse_word(img)
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def word_to_str(word, generators=None):
    if not word:
        return "1"
    parts = []
    for x in word:
        i = abs(x) - 1
        if generators is not None:
            name = generators[i]
        else:
            name = ALPHABET[i] if i < 26 else "g%d" % (i + 1)
        if len(name) == 1 and name.isalpha():
            parts.append(name.upper() if x < 0 else name)
        else:
            parts.append(name + ("^-1" if x < 0 else ""))
    sep = "" if all(len(p) == 1 for p in parts) else " "
    return sep.join(parts)


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class Presentation:
    """A finite presentation with optional named peripheral subgroups.

    peripherals is a tuple of (name, generating words) pairs; the words are
    over the ambient generators.
    """

    generators: tuple
    relators: tuple = ()
    peripherals: tuple = ()

    def __post_init__(self):
        names = list(self.generators)
        if len(set(names)) != len(names):
            raise ParseError("duplicate generator names: %r" % (names,))
        n = len(names)
        for r in self.relators:
            for x in r:
                if not isinstance(x, int) or x == 0 or abs(x) > n:
                    raise ParseError("letter %r out of range in relator" % (x,))
        for name, gens in self.peripherals:
            for w in gens:
                for x in w:
                    if not isinstance(x, int) or x == 0 or abs(x) > n:
                        raise ParseError(
                            "letter %r out of range in peripheral %s" % (x, name)
                        )

    @property
    def n_gens(self):
        return len(self.generators)

    def word(self, text):
        """Parse a word written over this presentation's generators."""
        return parse_word(text, self.generators)

    def word_str(self, word):
        return word_to_str(word, self.generators)

    def to_grp(self):
        lines = ["gen " + " ".join(self.generators)]
        for r in self.relators:
            lines.append("rel " + self.word_str(r))
        for name, gens in self.peripherals:
            lines.append(
                "per %s = %s" % (name, " ".join(self.word_str(w) for w in gens))
            )
        return "\n".join(lines) + "\n"


def parse_word(text, generators, line=None):
    index = {}
    for i, name in enumerate(generators):
        if len(name) == 1 and name.isalpha() and name.islower():
            index[name] = i + 1
            index[name.upper()] = -(i + 1)
    text = text.strip()
    if text in ("", "1"):
        return ()
    word = []
    for col, ch in enumerate(text):
        if ch not in index:
            raise ParseError("unknown letter %r at column %d" % (ch, col + 1), line)
        word.append(index[ch])
    return tuple(word)


def parse_presentation(text):
    """Parse the .grp format: gen / rel / per lines, # comments."""
    generators = []
    rel_texts = []
    per_texts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "gen":
            for name in fields[1:]:
                if len(name) != 1 or not name.isalpha() or not name.islower():
                    raise ParseError(
                        "generator %r must be a single lowercase letter" % name,
                        lineno,
                    )
                if name in generators:
                    raise ParseError("duplicate generator %r" % name, lineno)
                generators.append(name)
        elif kind == "rel":
            if len(fields) != 2:
                raise ParseError("rel takes exactly one word", lineno)
            rel_texts.append((fields[1], lineno))
        elif kind == "per":
            if len(fields) < 4 or fields[2] != "=":
                raise ParseError("per syntax: per <name> = <word> [<word>...]", lineno)
            per_texts.append((fields[1], fields[3:], lineno))
        else:
            raise ParseError("unknown directive %r" % kind, lineno)
    if not generators:
        raise ParseError("no generators declared")
    relators = tuple(parse_word(t, generators, ln) for t, ln in rel_texts)
    peripherals = []
    seen = set()
    for name, wtexts, ln in per_texts:
        if name in seen:
            raise ParseError("duplicate peripheral name %r" % name, ln)
        seen.add(name)
        peripherals.append(
            (name, tuple(parse_word(t, generators, ln) for t in wtexts))
        )
    return Presentation(tuple(generators), relators, tuple(peripherals))


# ---------------------------------------------------------------------------
# backends


class WordProblemBackend:
    """Base class.  canonical=True means normalize() is a normal form."""

    kind = "abstract"
    canonical = False

    def __init__(self, presentation):
        self.presentation = presentation
        self.validated = False
        self.certificate = None

    def validate(self, overlap_bound=64):
        """Run the backend's soundness check.

        Returns a certificate dict on success and marks the backend
        validated; raises BackendError with a diagnostic otherwise.
        """
        raise NotImplementedError

    def _require_valid(self):
        if not self.validated:
            raise BackendError(
                "%s backend used before successful validation" % self.kind
            )

    def normalize(self, word):
        raise NotImplementedError

    def is_identity(self, word):
        return len(self.normalize(word)) == 0

    def equal(self, u, v):
        if self.canonical:
            return self.normalize(u) == self.normalize(v)
        return self.is_identity(concat(u, inverse_word(v)))


class FreeBackend(WordProblemBackend):
    """Free reduction; valid only for relator-free presentations."""

    kind = "free"
    canonical = True

    def validate(self, overlap_bound=64):
        if self.presentation.relators:
            raise BackendError(
                "free backend requires no relators, got %d"
                % len(self.presentation.relators)
            )
        self.validated = True
        self.certificate = {"kind": self.kind, "relators": 0}
        return self.certificate

    def normalize(self, word):
        self._require_valid()
        return free_reduce(word)


def symmetrized_relators(relators):
    """All cyclic rotations of the cyclically reduced relators and inverses.

    Returns a list of (relator_index, word) occurrence pairs; distinct
    rotations of the same relator count as distinct occurrences.
    """
    out = []
    for i, r in enumerate(relators):
        r = cyclic_reduce(r)
        if not r:
            continue
        for base in (r, inverse_word(r)):
            for rot in rotations(base):
                out.append((i, rot))
    return out


def max_piece_lengths(relators):
    """Longest piece involving each relator, under the common-prefix rule.

    A piece is a common prefix of two distinct symmetrized-relator
    occurrences; when the two occurrences carry the same word (a relator
    with a cyclic symmetry) only proper prefixes count.
    """
    occ = symmetrized_relators(relators)
    best = {}
    for a in range(len(occ)):
        ia, wa = occ[a]
        for b in range(a + 1, len(occ)):
            ib, wb = occ[b]
            n = 0
            m = min(len(wa), len(wb))
            while n < m and wa[n] == wb[n]:
                n += 1
            if wa == wb:
                n = len(wa) - 1  # proper prefix only
            if n <= 0:
                continue
            piece = wa[:n]
            if n > best.get(ia, (0,))[0]:
                best[ia] = (n, piece)
            if n > best.get(ib, (0,))[0]:
                best[ib] = (n, piece)
    return best


class DehnBackend(WordProblemBackend):
    """Dehn's algorithm; sound once the metric small-cancellation
    condition (pieces shorter than a sixth of each relator) is verified."""

    kind = "dehn"
    canonical = False

    def __init__(self, presentation):
        super().__init__(presentation)
        self._sym = [w for _, w in symmetrized_relators(presentation.relators)]
        # distinct words only, longest first so reductions are maximal
        self._sym = sorted(set(self._sym), key=lambda w: (-len(w), shortlex_key(w)))

    def validate(self, overlap_bound=64):
        rels = self.presentation.relators
        if not rels:
            raise BackendError("dehn backend needs at least one relator")
        for i, r in enumerate(rels):
            if not cyclic_reduce(r):
                raise BackendError("relator %d is trivial after reduction" % i)
        pieces = max_piece_lengths(rels)
        report = []
        ok = True
        for i, r in enumerate(rels):
            rlen = len(cyclic_reduce(r))
            plen, piece = pieces.get(i, (0, ()))
            report.append({"relator": i, "length": rlen, "max_piece": plen})
            if Fraction(plen) >= Fraction(rlen, 6):
                ok = False
                report[-1]["violation"] = {
                    "piece": piece,
                    "bound": "length %d/6" % rlen,
                }
        if not ok:
            bad = [e for e in report if "violation" in e]
            raise BackendError(
                "small-cancellation check failed: piece %r of length %d against "
                "relator %d of length %d"
                % (
                    bad[0]["violation"]["piece"],
                    bad[0]["max_piece"],
                    bad[0]["relator"],
                    bad[0]["length"],
                )
            )
        self.validated = True
        self.certificate = {"kind": self.kind, "pieces": report}
        return self.certificate

    def normalize(self, word):
        self._require_valid()
        w = free_reduce(word)
        changed = True
        while changed and w:
            changed = False
            for i in range(len(w)):
                best = None
                for rw in self._sym:
                    half = len(rw) // 2
                    n = 0
                    while i + n < len(w) and n < len(rw) and w[i + n] == rw[n]:
                        n += 1
                    if 2 * n > len(rw):
                        if best is None or n > best[0]:
                            best = (n, rw)
                if best is not None:
                    n, rw = best
                    # matched prefix u of relator u v: replace u by v^-1
                    repl = inverse_word(rw[n:])
                    w = free_reduce(w[:i] + repl + w[i + n:])
                    changed = True
                    break
        return w


class RewritingBackend(WordProblemBackend):
    """Length/shortlex-reducing string rewriting with a bounded-overlap
    confluence check.  Free cancellation rules are built in."""

    kind = "rewriting"
    canonical = True

    def __init__(self, presentation, rules):
        super().__init__(presentation)
        self.rules = [(tuple(l), tuple(r)) for l, r in rules]
        # the given rules, then free cancellation
        self._rewrite_rules = self.rules + [
            (pair, ()) for i in range(1, presentation.n_gens + 1)
            for pair in ((i, -i), (-i, i))]

    def validate(self, overlap_bound=64):
        for l, r in self.rules:
            if not l:
                raise BackendError("empty left-hand side in rule")
            if shortlex_key(r) >= shortlex_key(l):
                raise BackendError(
                    "rule %r -> %r is not shortlex-reducing" % (l, r)
                )
        rules = self._rewrite_rules
        checked = 0
        for (l1, r1), (l2, r2) in itertools.product(rules, repeat=2):
            # proper overlaps: a suffix of l1 equals a prefix of l2
            for k in range(1, min(len(l1), len(l2))):
                if l1[-k:] != l2[:k]:
                    continue
                w = l1 + l2[k:]
                a = r1 + l2[k:]
                b = l1[:-k] + r2
                checked += 1
                na = self._rewrite(a, cap=overlap_bound)
                nb = self._rewrite(b, cap=overlap_bound)
                if na != nb:
                    raise BackendError(
                        "critical pair from overlap %r does not resolve: "
                        "%r vs %r" % (w, na, nb)
                    )
            # containments: l2 occurs strictly inside l1
            if len(l2) < len(l1):
                for j in range(len(l1) - len(l2) + 1):
                    if l1[j:j + len(l2)] != l2:
                        continue
                    a = r1
                    b = l1[:j] + r2 + l1[j + len(l2):]
                    checked += 1
                    na = self._rewrite(a, cap=overlap_bound)
                    nb = self._rewrite(b, cap=overlap_bound)
                    if na != nb:
                        raise BackendError(
                            "critical pair from containment in %r does not "
                            "resolve: %r vs %r" % (l1, na, nb)
                        )
        self.validated = True
        self.certificate = {
            "kind": self.kind,
            "rules": len(self.rules),
            "critical_pairs": checked,
            "overlap_bound": overlap_bound,
        }
        return self.certificate

    def _rewrite(self, word, cap=None):
        rules = self._rewrite_rules
        w = tuple(word)
        steps = 0
        while True:
            hit = None
            for i in range(len(w)):
                for l, r in rules:
                    if w[i:i + len(l)] == l:
                        hit = (i, l, r)
                        break
                if hit:
                    break
            if hit is None:
                return w
            i, l, r = hit
            w = w[:i] + r + w[i + len(l):]
            steps += 1
            if cap is not None and steps > cap * max(8, len(word)):
                raise BackendError("rewrite step cap exceeded on %r" % (word,))

    def normalize(self, word):
        self._require_valid()
        return self._rewrite(word)


def validate_backend(presentation, backend, overlap_bound=64):
    """Validate; returns (True, certificate) or (False, diagnostic dict)."""
    try:
        cert = backend.validate(overlap_bound=overlap_bound)
        return True, cert
    except BackendError as e:
        return False, {"kind": backend.kind, "reason": str(e)}


def cyclic_power_rules(gen, p):
    """A convergent rule set for a generator of order p (relator gen^p)."""
    x, X = gen, -gen
    if p == 1:
        return [((x,), ()), ((X,), ())]
    m = p // 2
    if p == 2:
        return [((x, x), ()), ((X,), (x,))]
    if p % 2 == 1:
        return [((x,) * (m + 1), (X,) * m), ((X,) * (m + 1), (x,) * m)]
    return [((x,) * (m + 1), (X,) * (m - 1)), ((X,) * m, (x,) * m)]


def torsion_rewriting_rules(presentation):
    """Rules for a presentation all of whose relators are powers of single
    generators (free products of cyclic groups).  None if not of that shape."""
    rules = []
    seen = {}
    for r in presentation.relators:
        r = cyclic_reduce(r)
        if not r:
            return None
        letters = {abs(x) for x in r}
        if len(letters) != 1:
            return None
        g = letters.pop()
        sign = r[0] // abs(r[0])
        if any(x != sign * g for x in r):
            return None
        p = len(r)
        if g in seen and seen[g] != p:
            return None
        if g not in seen:
            seen[g] = p
            rules.extend(cyclic_power_rules(g, p))
    return rules


def default_backend(presentation, overlap_bound=64):
    """Pick and validate a backend: free, then Dehn, then torsion rewriting."""
    if not presentation.relators:
        b = FreeBackend(presentation)
        b.validate()
        return b
    attempts = []
    b = DehnBackend(presentation)
    ok, info = validate_backend(presentation, b, overlap_bound)
    if ok:
        return b
    attempts.append(info)
    rules = torsion_rewriting_rules(presentation)
    if rules is not None:
        b = RewritingBackend(presentation, rules)
        ok, info = validate_backend(presentation, b, overlap_bound)
        if ok:
            return b
        attempts.append(info)
    raise BackendError(
        "no backend validates for this presentation; tried %s"
        % "; ".join("%(kind)s (%(reason)s)" % a for a in attempts)
    )


# ---------------------------------------------------------------------------
# Tietze move enumeration


@dataclass(frozen=True)
class TietzeItem:
    """A presentation reachable by Tietze moves, with isomorphism data.

    forward[i] is the image in the new presentation of old generator i+1;
    backward[j] the image in the old presentation of new generator j+1.
    moves is the tuple of (kind, payload) steps taken.
    """

    presentation: Presentation
    forward: tuple
    backward: tuple
    moves: tuple = ()


def _identity_item(p):
    idw = tuple((i + 1,) for i in range(p.n_gens))
    return TietzeItem(p, idw, idw, ())


def _fresh_gen_name(used):
    for c in ALPHABET:
        if c not in used:
            return c
    i = 1
    while "g%d" % i in used:
        i += 1
    return "g%d" % i


def _single_moves(item, base, backend, length_budget):
    """Depth-1 moves from item.presentation, in the spec'd deterministic
    order: add-relator, remove-relator, add-generator, remove-generator.

    Identity checks for add-relator are pulled back to the base
    presentation through item.backward so only the base backend is needed.
    """
    p = item.presentation

    # add-relator: shortlex words that normalize to the identity
    for w in words_shortlex(p.n_gens, length_budget, include_empty=False):
        if w != free_reduce(w):
            continue
        if w in p.relators:
            continue
        in_base = substitute(w, item.backward)
        if not backend.is_identity(in_base):
            continue
        q = Presentation(p.generators, p.relators + (w,), p.peripherals)
        idw = tuple((i + 1,) for i in range(p.n_gens))
        yield TietzeItem(q, idw, idw, (("add-relator", w),)), idw, idw

    # remove-relator: relators that are freely trivial or literal
    # consequences (a rotation of another relator or its inverse)
    for i, r in enumerate(p.relators):
        rr = free_reduce(r)
        removable = not rr
        if not removable:
            rc = cyclic_reduce(r)
            for j, s in enumerate(p.relators):
                if j == i:
                    continue
                sc = cyclic_reduce(s)
                if rc in rotations(sc) or rc in rotations(inverse_word(sc)):
                    removable = True
                    break
        if not removable:
            continue
        q = Presentation(
            p.generators, p.relators[:i] + p.relators[i + 1:], p.peripherals
        )
        idw = tuple((i2 + 1,) for i2 in range(p.n_gens))
        yield TietzeItem(q, idw, idw, (("remove-relator", i),)), idw, idw

    # add-generator: new generator defined by a word over the old ones
    name = _fresh_gen_name(set(p.generators))
    new = p.n_gens + 1
    for w in words_shortlex(p.n_gens, length_budget, include_empty=True):
        if w != free_reduce(w):
            continue
        q = Presentation(
            p.generators + (name,),
            p.relators + ((new,) + inverse_word(w),),
            p.peripherals,
        )
        fwd = tuple((i + 1,) for i in range(p.n_gens))
        bwd = tuple((i + 1,) for i in range(p.n_gens)) + (w,)
        yield TietzeItem(q, fwd, bwd, (("add-generator", (name, w)),)), fwd, bwd

    # remove-generator: a relator using some generator exactly once
    for g in range(1, p.n_gens + 1):
        for i, r in enumerate(p.relators):
            rr = cyclic_reduce(r)
            hits = [k for k, x in enumerate(rr) if abs(x) == g]
            if len(hits) != 1:
                continue
            k = hits[0]
            rot = rr[k:] + rr[:k]  # starts with +-g
            if rot[0] < 0:
                rot = inverse_word(rot)
                rot = rot[-1:] + rot[:-1]
            # rot = g . tail, so g = tail^-1
            expr = inverse_word(rot[1:])
            # renumber: drop g, shift those above down by one
            def drop(word):
                out = []
                for x in substitute(word, _subst_images(p.n_gens, g, expr)):
                    out.append(x if abs(x) < g else (x - 1 if x > 0 else x + 1))
                return tuple(out)

            new_gens = p.generators[:g - 1] + p.generators[g:]
            new_rels = tuple(
                drop(s) for j, s in enumerate(p.relators) if j != i
            )
            new_pers = tuple(
                (nm, tuple(drop(w) for w in ws)) for nm, ws in p.peripherals
            )
            q = Presentation(new_gens, new_rels, new_pers)
            fwd = []
            for j in range(1, p.n_gens + 1):
                if j < g:
                    fwd.append((j,))
                elif j == g:
                    fwd.append(drop((g,)))
                else:
                    fwd.append((j - 1,))
            bwd = tuple((j,) if j < g else (j + 1,) for j in range(1, p.n_gens))
            yield TietzeItem(
                q, tuple(fwd), bwd, (("remove-generator", (p.generators[g - 1], i)),)
            ), tuple(fwd), bwd
            break  # one defining relator per generator


def _subst_images(n, g, expr):
    """Images sending generator g to expr and fixing the others."""
    return tuple(expr if j == g else (j,) for j in range(1, n + 1))


def enumerate_tietze(presentation, backend, depth=1, length_budget=2):
    """Deterministic, restartable stream of Tietze-equivalent presentations.

    Yields TietzeItem records whose forward/backward maps compose to the
    identity on generators (up to the word problem).  The identity item
    comes first, then items by move depth, moves ordered add-relator <
    remove-relator < add-generator < remove-generator with payloads in
    shortlex order.
    """
    backend._require_valid()
    root = _identity_item(presentation)
    yield root
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for item in frontier:
            for child, fwd_step, bwd_step in _single_moves(
                item, presentation, backend, length_budget
            ):
                forward = tuple(
                    substitute(w, fwd_step) for w in item.forward
                )
                backward = tuple(
                    substitute(w, item.backward) for w in child.backward
                )
                out = TietzeItem(
                    child.presentation, forward, backward, item.moves + child.moves
                )
                nxt.append(out)
                yield out
        frontier = nxt

"""Group presentations, words, and checkable word-problem backends.

A word is a tuple of nonzero ints: ``i > 0`` means generator number ``i``
(1-based), ``-i`` its inverse.  In text form lowercase letters are
generators, uppercase letters their inverses, and juxtaposition is the
product, so ``"abAB"`` is the commutator of the first two generators.

Three word-problem backends are provided.  Each runs its soundness
check when it is built, so a backend object that exists has passed it:
the free backend accepts only relator-free presentations, the Dehn
backend checks a syntactic metric small-cancellation condition on the
symmetrized relators, and the rewriting backend checks that a supplied
shortlex-reducing rule set has confluent critical pairs.
"""

from dataclasses import dataclass
from fractions import Fraction
import itertools

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class ParseError(ValueError):
    """Raised on malformed presentation text; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class BackendError(ValueError):
    """Raised when a backend cannot be built: its soundness check fails."""


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


def join(u, v):
    """The product of the freely reduced words u and v, freely reduced:
    cancellation happens only across the junction."""
    i, n = 0, min(len(u), len(v))
    while i < n and u[-1 - i] == -v[i]:
        i += 1
    return u[:len(u) - i] + v[i:]


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


def words_shortlex(n_gens, max_len, include_empty=True):
    """Yield the freely reduced words over n_gens generators in shortlex
    order up to max_len."""
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
                if w and w[-1] == -x:
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
    """Base class.  Each constructor runs the backend's soundness check,
    keeps its result as the certificate dict, and raises BackendError
    with a diagnostic when it fails.  canonical=True means normalize()
    is a normal form."""

    kind = "abstract"
    canonical = False

    def __init__(self, presentation):
        self.presentation = presentation

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

    def __init__(self, presentation):
        if presentation.relators:
            raise BackendError(
                "free backend requires no relators, got %d"
                % len(presentation.relators)
            )
        super().__init__(presentation)
        self.certificate = {"kind": self.kind, "relators": 0}

    def normalize(self, word):
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
    """Dehn's algorithm; built only when the metric small-cancellation
    condition (pieces shorter than a sixth of each relator) holds."""

    kind = "dehn"
    canonical = False

    def __init__(self, presentation):
        rels = presentation.relators
        if not rels:
            raise BackendError("dehn backend needs at least one relator")
        for i, r in enumerate(rels):
            if not cyclic_reduce(r):
                raise BackendError("relator %d is trivial after reduction" % i)
        pieces = max_piece_lengths(rels)
        report = []
        for i, r in enumerate(rels):
            rlen = len(cyclic_reduce(r))
            plen, piece = pieces.get(i, (0, ()))
            report.append({"relator": i, "length": rlen, "max_piece": plen})
            if Fraction(plen) >= Fraction(rlen, 6):
                raise BackendError(
                    "small-cancellation check failed: piece %r of length %d "
                    "against relator %d of length %d" % (piece, plen, i, rlen)
                )
        super().__init__(presentation)
        self.certificate = {"kind": self.kind, "pieces": report}
        sym = {w for _, w in symmetrized_relators(rels)}
        # distinct words only, longest first so reductions are maximal,
        # filed by first letter: a match at position i starts with w[i]
        self._sym_from = {}
        for rw in sorted(sym, key=lambda w: (-len(w), shortlex_key(w))):
            self._sym_from.setdefault(rw[0], []).append(rw)

    def normalize(self, word):
        w = free_reduce(word)
        changed = True
        while changed and w:
            changed = False
            for i in range(len(w)):
                best = None
                for rw in self._sym_from.get(w[i], ()):
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


# rewrite-step factor of the rewriting backend's critical-pair check: a
# pair's rewrite may take OVERLAP_BOUND * max(8, |word|) steps
OVERLAP_BOUND = 64


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
                na = self._rewrite(a, cap=OVERLAP_BOUND)
                nb = self._rewrite(b, cap=OVERLAP_BOUND)
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
                    na = self._rewrite(a, cap=OVERLAP_BOUND)
                    nb = self._rewrite(b, cap=OVERLAP_BOUND)
                    if na != nb:
                        raise BackendError(
                            "critical pair from containment in %r does not "
                            "resolve: %r vs %r" % (l1, na, nb)
                        )
        self.certificate = {
            "kind": self.kind,
            "rules": len(self.rules),
            "critical_pairs": checked,
            "overlap_bound": OVERLAP_BOUND,
        }

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
        return self._rewrite(word)


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


def default_backend(presentation):
    """The first backend that builds: free, then Dehn, then torsion
    rewriting."""
    if not presentation.relators:
        return FreeBackend(presentation)
    def candidates():
        yield DehnBackend, ()
        rules = torsion_rewriting_rules(presentation)
        if rules is not None:
            yield RewritingBackend, (rules,)

    attempts = []
    for cls, args in candidates():
        try:
            return cls(presentation, *args)
        except BackendError as e:
            attempts.append("%s (%s)" % (cls.kind, e))
    raise BackendError(
        "no backend validates for this presentation; tried %s"
        % "; ".join(attempts)
    )


# ---------------------------------------------------------------------------
# integer linear algebra and the element index


def _exponent_vector(w, n_gens):
    v = [0] * n_gens
    for x in w:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def abelianization_rank(p):
    """Free rank of the abelianized group: n minus the rank of the
    relator lattice."""
    n = len(p.generators)
    return n - len(hermite_normal_form(
        [_exponent_vector(r, n) for r in p.relators], n))


def images_generate_abelianization(vertex_p, images):
    """True iff the image vectors, together with the vertex relators,
    span all of Z^n (the lattice is Z^n iff its Hermite form is the
    identity; a necessary condition for the subgroup to be the whole
    group, so False certifies non-surjectivity)."""
    n = len(vertex_p.generators)
    rows = [_exponent_vector(w, n)
            for w in (*vertex_p.relators, *images)]
    return hermite_normal_form(rows, n) == \
        [tuple(int(i == j) for j in range(n)) for i in range(n)]


def hermite_normal_form(rows, n_cols):
    """Row Hermite normal form of the lattice the integer rows span: its
    nonzero rows in echelon order, each pivot positive and every entry
    above a pivot reduced into [0, pivot)."""
    m = [list(r) for r in rows]
    r0 = 0
    for c in range(n_cols):
        # Euclid down column c until, of rows r0 on, only r0 is nonzero
        while True:
            live = [i for i in range(r0, len(m)) if m[i][c]]
            if not live:
                break
            p = min(live, key=lambda i: abs(m[i][c]))
            m[r0], m[p] = m[p], m[r0]
            if len(live) == 1:
                break
            for i in range(r0 + 1, len(m)):
                q = m[i][c] // m[r0][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r0])]
        if not live:
            continue
        if m[r0][c] < 0:
            m[r0] = [-a for a in m[r0]]
        for i in range(r0):
            q = m[i][c] // m[r0][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r0])]
        r0 += 1
    return [tuple(r) for r in m[:r0]]


def abelian_key(n_gens, lattice_words):
    """A map from words to the canonical representative of their exponent
    vectors modulo the lattice that the exponent vectors of lattice_words
    span.  Two words equal modulo the normal closure of lattice_words get
    the same key (the converse fails): with the relators as lattice_words,
    equal group elements share a key, and with the relators plus the
    generators of a subgroup H, so do u and v whenever u^-1 v is in H."""
    basis = []
    for row in hermite_normal_form(
            [_exponent_vector(w, n_gens) for w in lattice_words], n_gens):
        c = next(j for j, a in enumerate(row) if a)
        basis.append((c, row))

    def key(word):
        v = _exponent_vector(word, n_gens)
        for c, row in basis:
            q = v[c] // row[c]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)
    return key


class ElementIndex:
    """Words stored under integer ids, looked up up to equality in the
    group.  A canonical backend keys each word by its normal form.  Any
    other backend buckets it by its abelian key modulo the relators, so a
    lookup confirms a match with backend.equal against the few stored
    words that share the key, not against all of them.  setdefault()
    takes freely reduced words, and on the free backend such a word is
    its own key."""

    def __init__(self, backend):
        self.backend = backend
        p = backend.presentation
        self._key = (backend.normalize if backend.canonical
                     else abelian_key(p.n_gens, p.relators))
        self._reduced_key = (_same if isinstance(backend, FreeBackend)
                             else self._key)
        self._table = {}

    def find(self, word, accept=None):
        """Id of the stored word equal to word, or None.  On a bucketed
        lookup accept(id) may prune candidates; it must admit the match."""
        found = self._table.get(self._key(word))
        if found is None or self.backend.canonical:
            return found
        return self._scan(found, word, accept)

    def setdefault(self, word, new_id, accept=None):
        """find(word, accept) for a freely reduced word, storing word under
        new_id when it finds nothing; returns the id found or new_id."""
        key = self._reduced_key(word)
        if self.backend.canonical:
            return self._table.setdefault(key, new_id)
        bucket = self._table.setdefault(key, [])
        u = self._scan(bucket, word, accept)
        if u is None:
            bucket.append((new_id, word))
            u = new_id
        return u

    def keys(self):
        """The keys stored, in the order first stored: on a canonical
        backend, the normal forms of the stored words."""
        return list(self._table)

    def _scan(self, bucket, word, accept):
        for u, w in bucket:
            if (accept is None or accept(u)) and self.backend.equal(w, word):
                return u
        return None


def _same(word):
    return word


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


def _single_moves(item, backend, length_budget):
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
    root = _identity_item(presentation)
    yield root
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for item in frontier:
            for child, fwd_step, bwd_step in _single_moves(
                item, backend, length_budget
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

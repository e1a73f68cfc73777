"""Seed mutation: (B, C, G) triples tracked along mutation words.

A seed holds its c- and g-vectors, the columns of C and G, as tuples:
`s.c[i - 1]` is c_i and `s.g[i - 1]` is g_i.  The vectors follow the
rules of Fomin-Zelevinsky (Cluster algebras IV), in which mutation in
direction k changes only c_k, g_k and the c-vectors c_j with
[eps b_kj]_+ > 0, where eps is the tropical sign of c_k.  Those j are
also the ones whose g_j enter g_k, so one sign test per j decides both
updates.  A child shares every other vector with its parent, as the same
tuple object.  At rank 3 `mutate_seed`, like `exchange.mutate_matrix`,
writes each update out in straight-line arithmetic; any other rank takes
one generic loop.

A child's B is built on first read: until then it holds its parent's B
and k, and `exchange.mutate_matrix` builds mu_k(B) by the row rule
`mutate_row`.  So a seed that is keyed and stored but never expanded
never builds its B.  D, which every B in the mutation class shares, is
read from the parent's B meanwhile.  `built_on_read`, which
`explorer.Fan.adjacency` also uses, stores the B before it drops the
parent's, so two threads may read a new child's B at once.

A breadth-first `walk` holds, at any moment, only the unexpanded seeds
of the level it is expanding and of the next: it lets go of each seed
once the seed's children are made.  So a B lives only while an
unexpanded child still needs it to build its own.

Sign coherence is load-bearing: a mixed-sign c-vector aborts with
SignCoherenceViolation, which signals a bug rather than a reachable
state.  Seed documents keep the row layout of C and G.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .exchange import (ExchangeMatrix, Matrix, direction_error, int_rows,
                       json_field, json_value, mutate_matrix)


class SignCoherenceViolation(RuntimeError):
    """A c-vector with strictly mixed signs was encountered."""


# -- small integer matrix helpers -------------------------------------------

def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def det(m: Matrix) -> int:
    """Integer determinant of a square matrix by fraction-free Gaussian
    elimination (Bareiss)."""
    n = len(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(m: Matrix) -> Matrix:
    n = len(m)
    if n == 1:
        return ((1,),)
    cof = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(m[r][c] for c in range(n) if c != j)
                for r in range(n) if r != i
            )
            row.append((-1) ** (i + j) * det(minor))
        cof.append(tuple(row))
    return transpose(tuple(cof))


def unimodular_inverse(m: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with det = +-1."""
    d = det(m)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det {d})")
    adj = adjugate(m)
    if d == 1:
        return adj
    return tuple(tuple(-x for x in row) for row in adj)


# -- seeds -------------------------------------------------------------------

class built_on_read:
    """Non-data descriptor for an attribute `name` that an instance builds
    on first read, by `build(source)` from its attribute `source`, and
    keeps in its `__dict__`, which shadows the descriptor on every later
    read.  The source is then set to None.  An instance that holds the
    value from the start, such as a Seed built with its B, never reaches
    the descriptor.

    The value is stored before the source is dropped, so a reader that
    finds the source already None finds the value.  So the first read
    needs no lock across threads: two threads that both find the source
    both build the value and get equal ones, and the later store wins.  A
    build that dropped the source before the value was stored, under
    `functools.cached_property`, which takes no lock from Python 3.12 on,
    would let a second reader find neither.  Set the descriptor on a
    dataclass after `@dataclass`, which would take a class attribute for
    the field's default."""

    __slots__ = ("name", "source", "build")

    def __init__(self, name: str, source: str, build):
        self.name, self.source, self.build = name, source, build

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        d = obj.__dict__
        source = d.get(self.source)
        if source is None:  # another thread built the value meanwhile
            return d[self.name]
        value = d[self.name] = self.build(source)
        d[self.source] = None
        return value


@dataclass(frozen=True)
class Seed:
    """Exchange matrix B with the c-vectors `c` and g-vectors `g`: the
    columns of C and G, c_i = c[i - 1] and g_i = g[i - 1].

    A child of `mutate_seed` holds no b until it is first read: `_from`
    holds (parent B, k), and `b` is a `built_on_read` attribute that
    stores mu_k(parent B) and only then sets `_from` to None.  Equality,
    hashing, `repr`, copies and pickles read b or carry `_from`, so all
    match those of a seed built with its B."""

    b: ExchangeMatrix
    c: Matrix
    g: Matrix
    word: tuple[int, ...] = ()

    _from = None  # (parent B, k) while a child of mutate_seed has no b

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def symmetrizer(self) -> tuple[int, ...]:
        """D, read without building B: every B in the class shares it."""
        source = self._from
        return (source[0] if source else self.b).symmetrizer

    def c_vector(self, i: int) -> tuple[int, ...]:
        return self.c[i - 1]

    def g_vector(self, i: int) -> tuple[int, ...]:
        return self.g[i - 1]

    def to_json(self) -> dict:
        """B, C and G as lists of rows, and the word."""
        return {
            "b": [list(r) for r in self.b.entries],
            "c": [list(r) for r in zip(*self.c)],
            "g": [list(r) for r in zip(*self.g)],
            "word": list(self.word),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Seed":
        """Decode `to_json`, rejecting a missing field, a C or G that is
        not n x n for the rank n of B, a word letter outside 1..n, a C and
        G that are not D-dual, C^T D G != D, as `load_fan` rejects a cone,
        and a c-vector with mixed signs, on which `mutate_seed` would raise
        SignCoherenceViolation, its bug signal, for an input error."""
        json_value(doc, dict, "seed")
        b = ExchangeMatrix(int_rows(json_field(doc, "b", "seed"), "seed b"))
        n = b.n
        c = int_rows(json_field(doc, "c", "seed"), "seed c")
        g = int_rows(json_field(doc, "g", "seed"), "seed g")
        for name, m in (("c", c), ("g", g)):
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"seed {name} must be {n}x{n}, as b is")
        word = int_rows([json_field(doc, "word", "seed")], "seed word")[0]
        if not all(1 <= k <= n for k in word):
            raise ValueError(f"seed word {list(word)} is not a word in "
                             f"1..{n}")
        c, g = transpose(c), transpose(g)
        if not d_paired(c, g, b.symmetrizer):
            raise ValueError("seed c-vectors not dual to the g-vectors: "
                             "C^T D G != D")
        # det C = +-1, so no c-vector is zero
        for i, col in enumerate(c, 1):
            if max(col) > 0 and min(col) < 0:
                raise ValueError(f"seed c-vector {i} has mixed signs: "
                                 f"{list(col)}")
        return cls(b, c, g, word)


Seed.b = built_on_read("b", "_from", lambda source: mutate_matrix(*source))


def initial_seed(B: ExchangeMatrix) -> Seed:
    return Seed(B, identity(B.n), identity(B.n), ())


def tropical_sign(s: Seed, k: int) -> int:
    """+1 or -1: the uniform sign of the k-th c-vector."""
    col = s.c[k - 1]
    has_pos = max(col) > 0
    has_neg = min(col) < 0
    if has_pos and has_neg:
        raise SignCoherenceViolation(
            f"mixed signs in c-vector {k} at word {s.word}: {col}"
        )
    if not has_pos and not has_neg:
        raise SignCoherenceViolation(f"zero c-vector {k} at word {s.word}")
    return 1 if has_pos else -1


# the two directions besides kk (0-based) at rank 3
_OTHERS = ((1, 2), (0, 2), (0, 1))


def mutate_seed(s: Seed, k: int) -> Seed:
    """Mutation in direction k (1-based) of the full (B, C, G) triple;
    the child builds its B when it is first read (see `Seed`), and its
    fields go into its `__dict__` in one update.

    The rules move c_j when eps b_kj > 0 and add a multiple of g_j to
    -g_k when -eps b_jk > 0.  B is skew-symmetrizable, d_k b_kj =
    -d_j b_jk with every d_j > 0 (`ExchangeMatrix` checks D when it is
    built, and `mutate_matrix` again on every mutation), so both
    conditions pick out the same j: one sign test per neighbour decides
    both updates.  At rank 3 every vector is unpacked once and each
    update is written out componentwise in straight-line arithmetic, with
    eps folded into x = eps c_k and h = -eps g_k, so that no entry is
    multiplied by eps; eps is read from the unpacked c_k, and
    `tropical_sign` runs only to raise its SignCoherenceViolation.  Any
    other rank takes one generic loop.  Both build the same vectors and
    raise the same errors, before the parent's B is read."""
    c, g = s.c, s.g
    n = len(c)
    if type(k) is not int or not 1 <= k <= n:
        raise direction_error(k, n)
    kk = k - 1
    if n == 3:
        x1, x2, x3 = c[kk]
        # green is eps > 0; a sign-coherent c_k then has no negative
        # entry, and otherwise a nonzero one
        green = x1 > 0 or x2 > 0 or x3 > 0
        if (x1 < 0 or x2 < 0 or x3 < 0) if green else not (x1 or x2 or x3):
            tropical_sign(s, k)  # raises SignCoherenceViolation
        B = s.b
        b = B.entries
        i, j = _OTHERS[kk]
        ci, cj, gi, gj = c[i], c[j], g[i], g[j]
        ck = (-x1, -x2, -x3)
        h1, h2, h3 = g[kk]
        # x = eps c_k and h = -eps g_k; for l = i, j with eps b_kl > 0,
        # c_l -> c_l + b_kl x and h -> h - b_lk g_l; then g_k -> eps h
        if green:
            h1, h2, h3 = -h1, -h2, -h3
        else:
            x1, x2, x3 = ck
        bki, bik = b[kk][i], b[i][kk]
        if bki > 0 if green else bki < 0:
            y1, y2, y3 = ci
            ci = (y1 + bki * x1, y2 + bki * x2, y3 + bki * x3)
            y1, y2, y3 = gi
            h1, h2, h3 = h1 - bik * y1, h2 - bik * y2, h3 - bik * y3
        bkj, bjk = b[kk][j], b[j][kk]
        if bkj > 0 if green else bkj < 0:
            y1, y2, y3 = cj
            cj = (y1 + bkj * x1, y2 + bkj * x2, y3 + bkj * x3)
            y1, y2, y3 = gj
            h1, h2, h3 = h1 - bjk * y1, h2 - bjk * y2, h3 - bjk * y3
        gk = (h1, h2, h3) if green else (-h1, -h2, -h3)
        if kk == 0:
            new_c, new_g = (ck, ci, cj), (gk, gi, gj)
        elif kk == 1:
            new_c, new_g = (ci, ck, cj), (gi, gk, gj)
        else:
            new_c, new_g = (ci, cj, ck), (gi, gj, gk)
    else:
        eps = tropical_sign(s, k)
        B = s.b
        b = B.entries
        # for j with w = eps b_kj > 0: c_j -> c_j + w c_k and
        # g_k -> g_k + (-eps b_jk) g_j, from -g_k; then c_k -> -c_k
        ck = c[kk]
        new_c = list(c)
        gk = [-x for x in g[kk]]
        for j, bkj in enumerate(b[kk]):
            w = eps * bkj
            if w > 0:
                new_c[j] = tuple([x + w * y for x, y in zip(c[j], ck)])
                f = -eps * b[j][kk]
                gk = [x + f * y for x, y in zip(gk, g[j])]
        new_c[kk] = tuple([-x for x in ck])
        new_c = tuple(new_c)
        new_g = g[:kk] + (tuple(gk),) + g[k:]
    # the frozen dataclass's __init__ would need b
    child = object.__new__(Seed)
    child.__dict__.update(_from=(B, k), c=new_c, g=new_g, word=s.word + (k,))
    return child


def walk(s0: Seed, key, depth: int, seen: dict):
    """Breadth-first walk of the mutation tree from s0 to words of length
    `depth`, yielding (child, key(child), key(parent), new) for every
    child it makes, one at a time; `new` is true only the first time the
    walk meets a key.  `seen`, a dict the caller owns, maps each key the
    walk meets to the word that first reached it, s0's word included.

    A seed is expanded in every direction k = 1..n but the last letter of
    its word: mutation is an involution, so that letter leads back to the
    parent, which the walk met a level up.  Many words reach the same key,
    and each key is expanded once, from the first seed that reaches it,
    which has a shortest word (ties broken by construction order).  This
    loses nothing when the key fixes the seed's neighbors: a later seed
    with a known key has the same neighbors as the first, queued at the
    same or a shallower level.  A G-cone fixes them, as does the labelled
    seed (C, G), which fixes B by G_t B_t = B C_t (Nakanishi-Zelevinsky).
    Only an expansion reads a seed's B, so the seeds at the depth bound,
    which are never expanded, never build theirs; a seed's B is stored
    before the parent's B it was built from is dropped (`built_on_read`).

    The walk holds only the unexpanded seeds of the level it is expanding
    and of the next, besides the seed it is expanding: each level entry is
    released as soon as it is taken, so a seed, with the B it built, is
    freed once its children are made, unless the caller keeps it.  A B
    then lives only while a child in the next level, which holds its
    parent's B until it builds its own, is still unexpanded.  The seeds at
    the depth bound are not kept at all.  So memory peaks at about what
    the caller keeps, such as `explore`'s fan.

    Each key is hashed once: one `setdefault` both tests and inserts it,
    and `seen` grows exactly when the key is new.  Callers run the walk
    inside `collector_paused`, whose pause is process-wide, so cyclic
    garbage that other threads make meanwhile waits until the caller
    returns.  The walk does not pause the collector itself: a suspended
    walk, which a kept traceback can hold, would hold the pause too."""
    key0 = key(s0)
    seen.setdefault(key0, s0.word)
    level = [(s0, key0)]
    for length in range(1, depth + 1):
        nxt = []
        for i, (s, parent_key) in enumerate(level):
            level[i] = None  # s and its B go once its children are made
            last = s.word[-1] if s.word else 0
            for k in range(1, s.n + 1):
                if k != last:
                    child = mutate_seed(s, k)
                    child_key = key(child)
                    size = len(seen)
                    seen.setdefault(child_key, child.word)
                    new = len(seen) > size
                    if new and length < depth:
                        nxt.append((child, child_key))
                    yield child, child_key, parent_key, new
        level = nxt


class collector_paused:
    """Run the body of a `with` block with the cyclic garbage collector
    paused, and enable it again afterwards only if it was enabled before,
    so nested pauses and a caller that disabled it keep their state.

    The seeds, keys and cones of a walk hold no reference cycles, so
    reference counting frees them all, and the collector would only
    rescan a heap of seeds that keeps growing.  The pause is process-wide:
    cyclic garbage that other threads make meanwhile waits until the block
    ends.  A class, not a `contextlib.contextmanager` generator, because
    `gfans.cli.main` enters it once per command and the generator's
    entry and exit cost a few microseconds of a short command."""

    __slots__ = ("_enabled",)

    def __enter__(self):
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self._enabled:
            gc.enable()


def apply_word(s: Seed, word) -> Seed:
    for k in word:
        s = mutate_seed(s, k)
    return s


# -- G-cones -----------------------------------------------------------------

@dataclass(frozen=True)
class GCone:
    """Simplicial cone spanned by the g-vectors `rays` of a seed.

    `normals` are the seed's c-vectors and `symmetrizer` is D; together
    they give the facet normals.  `g_cone` and `load_fan` build every
    cone with this constructor; the fields hold the seed's tuples, shared,
    not copied.
    """

    rays: tuple[tuple[int, ...], ...]
    normals: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]

    @property
    def key(self) -> tuple[tuple[int, ...], ...]:
        return cone_key(self.rays)

    @cached_property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Facet normals D c_i.  By tropical duality <c_i, D g_j> =
        d_i delta_ij, the i-th barycentric coordinate of x is
        <D c_i, x> / d_i."""
        d = self.symmetrizer
        return tuple(tuple(map(mul, d, c)) for c in self.normals)


def cone_key(rays) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(map(tuple, rays)))


def g_cone(s: Seed) -> GCone:
    """The G-cone of s: its g-vectors as rays, its c-vectors as normals
    and its D, read without building s's B."""
    return GCone(s.g, s.c, s.symmetrizer)


def d_paired(normals, rays, d) -> bool:
    """Tropical duality <c_i, D g_j> = d_i delta_ij between the c-vectors
    `normals` and the g-vectors `rays` of one seed, all of length n = len(d).

    In matrix form C^T D G = D, so det C * det G = 1: both are unimodular.
    At rank 3 the nine entries of C^T D G are written out in straight-line
    arithmetic; any other rank takes the generic loops.  Both give the same
    answer, false also for vectors of the wrong count or length.
    """
    n = len(d)
    if n == 3:
        # c_ij and g_ij are the entries of C and G: the vectors are columns
        try:
            (c11, c21, c31), (c12, c22, c32), (c13, c23, c33) = normals
            (g11, g21, g31), (g12, g22, g32), (g13, g23, g33) = rays
        except ValueError:  # not three vectors of length 3
            return False
        d1, d2, d3 = d
        h11, h12, h13 = d1 * g11, d1 * g12, d1 * g13  # the rows of D G
        h21, h22, h23 = d2 * g21, d2 * g22, d2 * g23
        h31, h32, h33 = d3 * g31, d3 * g32, d3 * g33
        return (c11 * h11 + c21 * h21 + c31 * h31 == d1
                and c11 * h12 + c21 * h22 + c31 * h32 == 0
                and c11 * h13 + c21 * h23 + c31 * h33 == 0
                and c12 * h11 + c22 * h21 + c32 * h31 == 0
                and c12 * h12 + c22 * h22 + c32 * h32 == d2
                and c12 * h13 + c22 * h23 + c32 * h33 == 0
                and c13 * h11 + c23 * h21 + c33 * h31 == 0
                and c13 * h12 + c23 * h22 + c33 * h32 == 0
                and c13 * h13 + c23 * h23 + c33 * h33 == d3)
    if any(len(v) != n for v in (normals, rays, *normals, *rays)):
        return False
    d_rays = [tuple(map(mul, d, g)) for g in rays]
    for i, c in enumerate(normals):
        for j, dg in enumerate(d_rays):
            if sum(map(mul, c, dg)) != (d[i] if i == j else 0):
                return False
    return True


# -- verification ------------------------------------------------------------

def verify_seed(s: Seed) -> dict[str, bool]:
    """Per-check report: det C = +-1, det G = +-1, sign coherence of the
    c-vectors, duality G = D^-1 (C^T)^-1 D and D-pairing C^T D G = D.

    One pairing decides four answers.  C^T D G = D gives det C * det G = 1
    in integers, so both are +-1, and `det` runs only for a seed that fails
    the pairing.  For n x n matrices C^T (D G D^-1) = I holds exactly when
    (D G D^-1) C^T = I, so duality and D-pairing are the same answer.  Only
    `d_paired` branches by rank."""
    c, g, d = s.c, s.g, s.symmetrizer
    paired = d_paired(c, g, d)
    report = {}
    # det C^T = det C, so the determinants read the vectors as rows
    report["det_c"] = paired or det(c) in (1, -1)
    report["det_g"] = paired or det(g) in (1, -1)

    coherent = True
    for col in c:
        if not any(col) or (max(col) > 0 and min(col) < 0):
            coherent = False
            break
    report["sign_coherence"] = coherent

    report["duality"] = paired
    report["d_pairing"] = paired
    return report

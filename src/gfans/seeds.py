"""Seed mutation: (B, C, G) triples tracked along mutation words.

C- and G-matrices are stored as row tuples; the i-th c- or g-vector is the
i-th column.  C is the bottom block of the extended exchange matrix (B over
C), so its rows follow B's row rule `exchange.mutate_row`.  G's rule reads
the tropical sign of the mutating c-vector, so sign coherence is
load-bearing: a mixed-sign c-vector aborts with SignCoherenceViolation,
which signals a bug rather than a reachable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import mul

from .exchange import (ExchangeMatrix, Matrix, int_rows, json_value,
                       mutate_matrix, mutate_row)


class SignCoherenceViolation(RuntimeError):
    """A c-vector with strictly mixed signs was encountered."""


# -- small integer matrix helpers -------------------------------------------

def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def det(m: Matrix) -> int:
    """Integer determinant by fraction-free Gaussian elimination."""
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

@dataclass(frozen=True)
class Seed:
    b: ExchangeMatrix
    c: Matrix
    g: Matrix
    word: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return self.b.n

    def c_vector(self, i: int) -> tuple[int, ...]:
        return tuple(row[i - 1] for row in self.c)

    def g_vector(self, i: int) -> tuple[int, ...]:
        return tuple(row[i - 1] for row in self.g)

    def to_json(self) -> dict:
        return {
            "b": [list(r) for r in self.b.entries],
            "c": [list(r) for r in self.c],
            "g": [list(r) for r in self.g],
            "word": list(self.word),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Seed":
        json_value(doc, dict, "seed")
        return cls(ExchangeMatrix(int_rows(doc["b"], "seed b")),
                   int_rows(doc["c"], "seed c"), int_rows(doc["g"], "seed g"),
                   int_rows([doc["word"]], "seed word")[0])


def initial_seed(B: ExchangeMatrix) -> Seed:
    return Seed(B, identity(B.n), identity(B.n), ())


def tropical_sign(s: Seed, k: int) -> int:
    """+1 or -1: the uniform sign of the k-th c-vector column."""
    col = s.c_vector(k)
    has_pos = any(x > 0 for x in col)
    has_neg = any(x < 0 for x in col)
    if has_pos and has_neg:
        raise SignCoherenceViolation(
            f"mixed signs in c-vector {k} at word {s.word}: {col}"
        )
    if not has_pos and not has_neg:
        raise SignCoherenceViolation(f"zero c-vector {k} at word {s.word}")
    return 1 if has_pos else -1


def mutate_seed(s: Seed, k: int) -> Seed:
    """Mutation in direction k (1-based) of the full (B, C, G) triple."""
    n = s.n
    if not 1 <= k <= n:
        raise IndexError(f"mutation direction {k} out of range 1..{n}")
    eps = tropical_sign(s, k)
    b = s.b.entries
    kk = k - 1
    new_c = tuple(mutate_row(row, b[kk], kk) for row in s.c)
    # g_k -> -g_k + sum_j [-eps b_jk]_+ g_j; the other g-vectors stay.
    f = [max(-eps * row[kk], 0) for row in b]
    new_g = tuple(
        row[:kk] + (sum(map(mul, f, row)) - row[kk],) + row[k:]
        for row in s.g
    )
    return Seed(mutate_matrix(s.b, k), new_c, new_g, s.word + (k,))


def children(s: Seed):
    """Yield mutate_seed(s, k), one at a time, for k = 1..n except the
    last letter of s.word: mutation is an involution, so that letter leads
    back to the parent seed, which a breadth-first walk met a level up."""
    last = s.word[-1] if s.word else 0
    for k in range(1, s.n + 1):
        if k != last:
            yield mutate_seed(s, k)


def apply_word(s: Seed, word) -> Seed:
    for k in word:
        s = mutate_seed(s, k)
    return s


# -- G-cones -----------------------------------------------------------------

@dataclass(frozen=True)
class GCone:
    """Simplicial cone spanned by the columns of a unimodular G-matrix.

    `normals` are the seed's c-vectors and `symmetrizer` is D; together
    they give the facet normals.
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
    return tuple(sorted(tuple(r) for r in rays))


def g_cone(s: Seed) -> GCone:
    return GCone(transpose(s.g), transpose(s.c), s.b.symmetrizer)


def d_paired(normals, rays, d) -> bool:
    """Tropical duality <c_i, D g_j> = d_i delta_ij between the c-vectors
    `normals` and the g-vectors `rays` of one seed, all of length n = len(d).

    In matrix form C^T D G = D, so det C * det G = 1: both are unimodular.
    """
    n = len(d)
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
    """Per-check report: determinants, sign coherence, duality, D-pairing."""
    d = s.b.symmetrizer
    report = {}
    report["det_c"] = det(s.c) in (1, -1)
    report["det_g"] = det(s.g) in (1, -1)

    ct = transpose(s.c)  # its rows are the c-vectors
    coherent = True
    for col in ct:
        if (any(x > 0 for x in col) and any(x < 0 for x in col)) or not any(col):
            coherent = False
    report["sign_coherence"] = coherent

    # G = D^{-1} (C^T)^{-1} D, checked as (D G D^{-1}) C^T = I: the right
    # inverse side of the D-pairing below.  Scaled by L = prod(d) it reads
    # sum_j g_ij c_kj (L d_i / d_j) = L delta_ik, in integers.
    big = prod(d)
    scaled = [[g * (big * di // dj) for g, dj in zip(g_row, d)]
              for di, g_row in zip(d, s.g)]  # the rows of L D G D^{-1}
    report["duality"] = report["det_c"] and all(
        sum(map(mul, row, c_row)) == (big if i == k else 0)
        for i, row in enumerate(scaled) for k, c_row in enumerate(s.c)
    )

    report["d_pairing"] = d_paired(ct, transpose(s.g), d)
    return report

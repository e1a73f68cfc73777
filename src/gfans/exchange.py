"""Exact integer exchange-matrix arithmetic.

Matrix mutation, skew-symmetrizability, the cyclic presentation of rank-3
matrices, Markov constants, and cluster-cyclicity.  All entries are Python
ints, so they may grow without bound under mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm


class NotSkewSymmetrizable(ValueError):
    """No positive integer diagonal D with D B skew-symmetric exists."""


class NotCyclic(ValueError):
    """Operation requires a cyclic rank-3 matrix."""


class NotTotallyInfinite(ValueError):
    """Operation requires |b_ij * b_ji| >= 4 for every pair i != j."""


Matrix = tuple[tuple[int, ...], ...]


def int_rows(rows, what: str) -> Matrix:
    """Integer rows of a JSON document as tuples.  Rows must be lists and
    entries ints: `int()` would also pass "0", false and 2.9."""
    if type(rows) is not list:
        raise ValueError(f"{what} must be integers in JSON lists")
    for r in rows:
        if type(r) is not list:
            raise ValueError(f"{what} must be integers in JSON lists")
        for x in r:
            if type(x) is not int:
                raise ValueError(f"{what} must be integers in JSON lists")
    return tuple(map(tuple, rows))


def json_value(value, kind: type, what: str):
    if type(value) is not kind:
        name = {dict: "an object", list: "a list", int: "an integer"}[kind]
        raise ValueError(f"{what} must be {name}")
    return value


def missing_field(what: str, name: str) -> ValueError:
    """The error for a JSON object, a `what`, that has no field `name`."""
    return ValueError(f'{what} has no "{name}" field')


def json_field(doc: dict, name: str, what: str):
    """doc[name] of a JSON object, a `what`, or `missing_field`'s error."""
    try:
        return doc[name]
    except KeyError:
        raise missing_field(what, name) from None


def _as_matrix(rows) -> Matrix:
    m = tuple(tuple(row) for row in rows)
    if any(type(x) is not int for row in m for x in row):
        raise ValueError("entries must be ints")
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("entries must form a nonempty square matrix")
    return m


def skew_symmetrizer(entries) -> tuple[int, ...]:
    """Positive integer diagonal (d_1..d_n) with d_i b_ij = -d_j b_ji.

    The result has gcd 1 and is componentwise minimal on every
    sign-connected component.  Raises NotSkewSymmetrizable when no positive
    solution exists (wrong sign pattern, mismatched zeros, or conflicting
    cycle products).  The ratios d_j/d_i propagate as reduced pairs of
    ints, so every comparison is between integers.
    """
    b = _as_matrix(entries)
    n = len(b)
    for i in range(n):
        if b[i][i] != 0:
            raise NotSkewSymmetrizable(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, n):
            if (b[i][j] == 0) != (b[j][i] == 0):
                raise NotSkewSymmetrizable(f"mismatched zero at ({i},{j})")
            if b[i][j] * b[j][i] > 0:
                raise NotSkewSymmetrizable(f"b_ij*b_ji > 0 at ({i},{j})")

    # Propagate the ratios d_j/d_root = num/den, each a reduced pair of
    # positive ints, over each component: d_j/d_i = -b_ij/b_ji > 0.
    ratio: list[tuple[int, int] | None] = [None] * n
    d = [0] * n
    for root in range(n):
        if ratio[root] is not None:
            continue
        ratio[root] = (1, 1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            num_i, den_i = ratio[i]
            row = b[i]
            for j in range(n):
                bij = row[j]
                if bij == 0 or j == i:
                    continue
                num, den = num_i * abs(bij), den_i * abs(b[j][i])
                g = gcd(num, den)
                r = (num // g, den // g)
                if ratio[j] is None:
                    ratio[j] = r
                    component.append(j)
                    stack.append(j)
                elif ratio[j] != r:
                    raise NotSkewSymmetrizable("conflicting cycle products")
        denom_lcm = lcm(*(ratio[i][1] for i in component))
        vals = [ratio[i][0] * (denom_lcm // ratio[i][1]) for i in component]
        g = gcd(*vals)
        for i, v in zip(component, vals):
            d[i] = v // g
    return tuple(d)


@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetrizable integer matrix.  Its minimal symmetrizer D,
    `symmetrizer`, is computed once, at construction, and `mutate_matrix`
    carries it.  D is not a field: `==`, `hash` and `repr` read entries."""

    entries: Matrix

    def __post_init__(self):
        entries = _as_matrix(self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "symmetrizer", skew_symmetrizer(entries))

    @classmethod
    def _with_symmetrizer(cls, entries: Matrix, d: tuple[int, ...]):
        """Instance with a symmetrizer the caller has already checked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "entries", entries)
        object.__setattr__(obj, "symmetrizer", d)
        return obj

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        """1-based entry access: B[i, j]."""
        i, j = ij
        return self.entries[i - 1][j - 1]

    def to_json(self) -> dict:
        return {"n": self.n, "b": [list(row) for row in self.entries]}

    @classmethod
    def from_json(cls, doc: dict) -> "ExchangeMatrix":
        json_value(doc, dict, "matrix")
        b = int_rows(json_field(doc, "b", "matrix"), "matrix b")
        if json_value(doc.get("n", len(b)), int, "matrix n") != len(b):
            raise ValueError("declared rank does not match matrix size")
        return cls(b)


def mutate_row(x: tuple[int, ...], pivot: tuple[int, ...],
               kk: int) -> tuple[int, ...]:
    """Row x of an extended exchange matrix with row kk `pivot`, mutated
    in direction kk (0-based): x_k -> -x_k and, for j != k,
    x_j -> x_j + [x_k]_+ [b_kj]_+ - [-x_k]_+ [-b_kj]_+.  It serves every
    row of B but the pivot at every rank but 3, where `mutate_matrix`
    writes the same rule out entry by entry; a seed's c- and g-vectors
    follow the vector rules of `seeds.mutate_seed`."""
    xk = x[kk]
    if not xk:
        return x
    if xk > 0:
        row = [a + xk * p if p > 0 else a for a, p in zip(x, pivot)]
    else:
        row = [a - xk * p if p < 0 else a for a, p in zip(x, pivot)]
    row[kk] = -xk
    return tuple(row)


def direction_error(k, n: int) -> Exception:
    """The error for a mutation direction k outside 1..n: a TypeError
    unless k is an int (a bool is not), else an IndexError."""
    if type(k) is not int:
        return TypeError(f"mutation direction {k!r} is not an int")
    return IndexError(f"mutation direction {k} out of range 1..{n}")


def _exchanged(bij: int, bik: int, bkj: int) -> int:
    """b_ij of mu_k(B) for i, j != k, as `mutate_row` computes it."""
    if bik > 0:
        return bij + bik * bkj if bkj > 0 else bij
    return bij - bik * bkj if bik < 0 and bkj < 0 else bij


def mutate_matrix(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (1-based); see `mutate_row`.

    At rank 3 the six off-diagonal entries are written out in
    straight-line arithmetic: row and column k change sign and the two
    other entries follow `_exchanged`; any other rank takes the generic
    loops.  Both build the same matrix and raise the same errors."""
    n = B.n
    if type(k) is not int or not 1 <= k <= n:
        raise direction_error(k, n)
    # D skew-symmetrizes mu_k(B) whenever it skew-symmetrizes B, so the
    # parent's symmetrizer is carried over and only checked.
    d = B.symmetrizer
    if n == 3:
        (_, b12, b13), (b21, _, b23), (b31, b32, _) = B.entries
        if k == 1:
            m12, m13, m21, m31 = -b12, -b13, -b21, -b31
            m23, m32 = _exchanged(b23, b21, b13), _exchanged(b32, b31, b12)
        elif k == 2:
            m12, m21, m23, m32 = -b12, -b21, -b23, -b32
            m13, m31 = _exchanged(b13, b12, b23), _exchanged(b31, b32, b21)
        else:
            m13, m23, m31, m32 = -b13, -b23, -b31, -b32
            m12, m21 = _exchanged(b12, b13, b32), _exchanged(b21, b23, b31)
        d1, d2, d3 = d
        # the generic loop's pairs, in its order
        if d1 * m12 != -d2 * m21:
            pair = (0, 1)
        elif d1 * m13 != -d3 * m31:
            pair = (0, 2)
        elif d2 * m23 != -d3 * m32:
            pair = (1, 2)
        else:
            return ExchangeMatrix._with_symmetrizer(
                ((0, m12, m13), (m21, 0, m23), (m31, m32, 0)), d)
        raise _broken_symmetrizer(k, *pair)
    kk = k - 1
    pivot = B.entries[kk]
    new = [mutate_row(row, pivot, kk) for row in B.entries]
    new[kk] = tuple(-x for x in pivot)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i] * new[i][j] != -d[j] * new[j][i]:
                raise _broken_symmetrizer(k, i, j)
    return ExchangeMatrix._with_symmetrizer(tuple(new), d)


def _broken_symmetrizer(k: int, i: int, j: int) -> NotSkewSymmetrizable:
    return NotSkewSymmetrizable(
        f"mutation in direction {k} broke d_i b_ij = -d_j b_ji at ({i},{j})")


def apply_matrix_word(B: ExchangeMatrix, word) -> ExchangeMatrix:
    for k in word:
        B = mutate_matrix(B, k)
    return B


def is_totally_infinite(B: ExchangeMatrix) -> bool:
    b = B.entries
    n = B.n
    return all(
        abs(b[i][j] * b[j][i]) >= 4
        for i in range(n)
        for j in range(i + 1, n)
    )


@dataclass(frozen=True)
class CyclicPresentation:
    """The six off-diagonal parameters (p_i, p'_i) of a rank-3 matrix."""

    p: tuple[int, int, int]
    p_prime: tuple[int, int, int]

    @property
    def cyclic(self) -> bool:
        return all(x > 0 for x in self.p) or all(x < 0 for x in self.p)

    def to_matrix(self) -> ExchangeMatrix:
        p1, p2, p3 = self.p
        q1, q2, q3 = self.p_prime
        return ExchangeMatrix(
            ((0, -q3, p2), (p3, 0, -q1), (-q2, p1, 0))
        )


def cyclic_presentation(B: ExchangeMatrix) -> CyclicPresentation:
    """Read (p_1,p_2,p_3), (p'_1,p'_2,p'_3) off a rank-3 matrix."""
    if B.n != 3:
        raise ValueError("cyclic presentation requires rank 3")
    b = B.entries
    p = (b[2][1], b[0][2], b[1][0])
    p_prime = (-b[1][2], -b[2][0], -b[0][1])
    return CyclicPresentation(p, p_prime)


def markov_constant(B: ExchangeMatrix) -> int:
    """C(B) = p1 p'1 + p2 p'2 + p3 p'3 - |p1 p2 p3| for cyclic rank-3 B."""
    pres = cyclic_presentation(B)
    if not pres.cyclic:
        raise NotCyclic("Markov constant is defined for cyclic matrices only")
    p, q = pres.p, pres.p_prime
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2] - abs(p[0] * p[1] * p[2])


def is_cluster_cyclic(B: ExchangeMatrix) -> bool:
    """True iff every mutation-equivalent matrix is cyclic.

    Characterization: B cyclic, totally-infinite, and C(B) <= 4.
    """
    c = markov_constant(B)  # raises NotCyclic for acyclic input
    return is_totally_infinite(B) and c <= 4

"""Independent references for the benchmark's output checks.

Nothing here imports gfans.  Each reference comes from the mathematics
(closed forms, counting formulas, the Chebyshev recurrence, mutation
rules written out again from their definitions), so a defect in the
package cannot make its own output look right.
"""

from __future__ import annotations

from fractions import Fraction

# Fixture matrices, spelled out here so the benchmark does not depend on
# the test suite.  The nicknames follow the literature on rank-3 G-fans.
MARKOV = ((0, -2, 2), (2, 0, -2), (-2, 2, 0))
PINWHEEL = ((0, -2, 4), (3, 0, -6), (-2, 2, 0))
WING = ((0, -2, -4), (3, 0, -6), (2, 2, 0))
TUNNEL = ((0, -6, 4886), (9, 0, -830), (-7329, 830, 0))
WIDE_TUNNEL = ((0, -15, 2013), (2, 0, -139), (-1342, 695, 0))
TUNNEL_CLOSEUP = ((0, -16, 237602), (24, 0, -14889), (-356403, 14889, 0))
C5_EXAMPLE = ((0, -2, 7), (3, 0, -3), (-7, 2, 0))

A3 = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
AFFINE_A2 = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))
B2_A1 = ((0, 1, 0), (-2, 0, 0), (0, 0, 0))
RANK2_A2 = ((0, 1), (-1, 0))
RANK2_AFFINE = ((0, -1), (4, 0))

# The paper's tunnel route: the shortest mutation word from the initial
# seed of TUNNEL to the negative orthant.
TUNNEL_ROUTE = (2, 1, 2, 1, 3, 1, 3, 2, 3, 1, 2, 1, 2)

# Expected (triplet, case label) for the fixtures whose fan type the paper
# states.
FAN_TYPES = {
    WING: (("3", "2", "1"), "A"),
    MARKOV: (("4-1", "4-1", "4-1"), "C-1"),
    C5_EXAMPLE: (("4-2", "4-1", "4-3"), "C-5"),
}

# Cone counts of complete finite-type G-fans (number of clusters), and
# the diameters of their exchange graphs: the hexagon's triangulations
# (A3), the hexagon times an edge (B2 x A1), the pentagon (A2).
FINITE_CONES = {A3: 14, B2_A1: 12, RANK2_A2: 5}
FINITE_DIAMETER = {A3: 4, B2_A1: 4, RANK2_A2: 2}


def words_count(n: int, depth: int) -> int:
    """Mutation words of length <= depth with no immediate repeat."""
    return 1 + sum(n * (n - 1) ** k for k in range(depth))


def expected_cones(matrix, depth: int) -> int | None:
    """Cone count of a depth-bounded exploration, where a closed form is
    known: finite type (all clusters, once depth reaches the diameter of
    the exchange graph), rank 2 of infinite type (the exchange graph is a
    line), and Markov (the exchange graph is a 3-regular tree, so every
    word gives a new cone: 3 * 2**depth - 2)."""
    if matrix in FINITE_CONES:
        return FINITE_CONES[matrix] \
            if depth >= FINITE_DIAMETER[matrix] else None
    if len(matrix) == 2 and abs(matrix[0][1] * matrix[1][0]) >= 4:
        return words_count(2, depth)
    if matrix == MARKOV:
        return words_count(3, depth)
    return None


def totally_infinite(m) -> bool:
    n = len(m)
    return all(abs(m[i][j] * m[j][i]) >= 4
               for i in range(n) for j in range(i + 1, n))


def has_affine_pair(m) -> bool:
    """Some pair i < j has |b_ij b_ji| = 4, the affine rank-2 case."""
    n = len(m)
    return any(abs(m[i][j] * m[j][i]) == 4
               for i in range(n) for j in range(i + 1, n))


def cyclic_parameters(m):
    """(p, p') with p = (b32, b13, b21) and p' = (-b23, -b31, -b12)."""
    return ((m[2][1], m[0][2], m[1][0]), (-m[1][2], -m[2][0], -m[0][1]))


def is_cyclic(m) -> bool:
    p, _ = cyclic_parameters(m)
    return all(x > 0 for x in p) or all(x < 0 for x in p)


def markov_constant(m) -> int:
    """C(B) = p1 p'1 + p2 p'2 + p3 p'3 - |p1 p2 p3|."""
    p, q = cyclic_parameters(m)
    return sum(x * y for x, y in zip(p, q)) - abs(p[0] * p[1] * p[2])


def cluster_cyclic(m) -> bool:
    return len(m) == 3 and is_cyclic(m) and totally_infinite(m) and markov_constant(m) <= 4


_CYCLIC_CASES = {
    ("4-1", "4-1", "4-1"): None,  # C-1 or C-2, decided by C(B)
    ("4-1", "4-1", "4-2"): "C-3",
    ("4-1", "4-1", "4-3"): "C-4",
    ("4-1", "4-2", "4-3"): "C-5",
}


def case_label(m, triplet) -> str | None:
    """The global-pattern case implied by a triplet, or None if a cyclic
    matrix cannot have that triplet."""
    if not is_cyclic(m):
        return "A"
    key = tuple(sorted(triplet))
    if key not in _CYCLIC_CASES:
        return None
    label = _CYCLIC_CASES[key]
    if label is None:
        label = "C-1" if markov_constant(m) <= 4 else "C-2"
    return label


# -- Chebyshev bands -----------------------------------------------------

class Chebyshev:
    """U_n at t = kappa/2, kappa**2 = ab, as integers V_n with
    U_n = V_n (n even) or V_n * kappa (n odd), by the recurrence
    U_{n+1} = kappa U_n - U_{n-1} with U_{-1} = 0, U_0 = 1."""

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        self.v = [0, 1]  # V_{-1}, V_0

    def V(self, n: int) -> int:
        ab = self.a * self.b
        while len(self.v) < n + 2:
            m = len(self.v) - 2  # index of the last value
            nxt = self.v[-1] - self.v[-2] if m % 2 == 0 \
                else ab * self.v[-1] - self.v[-2]
            self.v.append(nxt)
        return self.v[n + 1]

    def ratio(self, p: int, q: int) -> Fraction:
        """nu U_p / U_q with nu = sqrt(b/a), so nu kappa = b and
        kappa / nu = a; p and q have opposite parity."""
        if p % 2:
            return Fraction(self.b * self.V(p), self.V(q))
        return Fraction(self.V(p), self.a * self.V(q))

    def band(self, tag: str, n: int):
        """[lo, hi) of ratios -d0/c0 in band n; hi None means unbounded."""
        if tag == "T42":
            return self.ratio(n + 1, n), (self.ratio(n, n - 1) if n else None)
        if tag == "T43":
            return self.ratio(n - 1, n), self.ratio(n, n + 1)
        raise ValueError(f"no bands for {tag}")


def band_holds(c0, d0, a, b, tag, n, equality) -> bool:
    """The defining inequality of band n, and its boundary flag."""
    r = Fraction(d0, -c0)
    lo, hi = Chebyshev(a, b).band(tag, n)
    return lo <= r and (hi is None or r < hi) and equality == (r == lo)


# -- mutation, written out from the definitions --------------------------

def _mutate(b, c, g, k):
    """One (B, C, G) mutation in direction k (0-based).  C and G are
    lists of column vectors; the sign of c_k decides the tropical sign."""
    n = len(b)
    eps = 1 if any(x > 0 for x in c[k]) else -1
    new_c = [
        [-x for x in c[k]] if i == k
        else [x + max(eps * b[k][i], 0) * y for x, y in zip(c[i], c[k])]
        for i in range(n)
    ]
    gk = [-x for x in g[k]]
    for j in range(n):
        f = max(-eps * b[j][k], 0)
        gk = [x + f * y for x, y in zip(gk, g[j])]
    new_g = [gk if i == k else g[i] for i in range(n)]
    new_b = [
        [-b[i][j] if k in (i, j)
         else b[i][j] + b[i][k] * max(b[k][j], 0) + max(-b[i][k], 0) * b[k][j]
         for j in range(n)]
        for i in range(n)
    ]
    return new_b, new_c, new_g


def reaches_negative_orthant(matrix, word) -> bool:
    """Whether mutating along word (1-based) turns every g-vector into a
    negative unit vector."""
    n = len(matrix)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    b, c, g = [list(r) for r in matrix], unit, unit
    for k in word:
        b, c, g = _mutate(b, c, g, k - 1)
    return sorted(tuple(-x for x in col) for col in g) == sorted(
        tuple(r) for r in unit)

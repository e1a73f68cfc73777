import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfans.explorer
import gfans.seeds
from gfans import (
    ExchangeMatrix,
    Seed,
    SignCoherenceViolation,
    apply_word,
    explore,
    g_cone,
    initial_seed,
    mutate_seed,
    tropical_sign,
    verify_seed,
)
from gfans.exchange import mutate_matrix, mutate_row
from gfans.seeds import (
    GCone,
    adjugate,
    cone_key,
    d_paired,
    det,
    identity,
    transpose,
    unimodular_inverse,
    walk,
)
from conftest import A3, A4, B2_A1, MARKOV, R4, TUNNEL, WING
from test_exchange import random_skew_symmetrizable, skew_symmetrizable_matrices

# skew_symmetrizable_matrices with rank 1 as well
matrices_of_rank_1_to_4 = st.builds(
    random_skew_symmetrizable, st.randoms(use_true_random=False),
    st.sampled_from([1, 2, 3, 4]),
)


def matmul(x, y):
    yt = list(zip(*y))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in yt) for row in x
    )


def test_det_against_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        m = tuple(
            tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n)
        )
        adj = adjugate(m)
        d = det(m)
        prod = matmul(m, adj)
        assert prod == tuple(
            tuple(d if i == j else 0 for j in range(n)) for i in range(n)
        )
    # 3 x 3 with entries past 600 bits: elimination against the adjugate
    # identity and against cofactor expansion along the first row
    for _ in range(50):
        m = tuple(tuple(rng.randint(-2 ** 640, 2 ** 640) for _ in range(3))
                  for _ in range(3))
        d = det(m)
        assert matmul(m, adjugate(m)) == ((d, 0, 0), (0, d, 0), (0, 0, d))
        (a, b, c), (e, f, g), (h, i, j) = m
        assert d == (a * (f * j - g * i) - b * (e * j - g * h)
                     + c * (e * i - f * h))
    unimodular = ((1, 2 ** 700, 0), (0, 1, 3 ** 450), (0, 0, -1))
    assert det(unimodular) == -1


def plus_one(vectors):
    """The vectors (rows or columns) of M (+) (1) for those of a 3 x 3
    matrix M: each with a fourth coordinate 0, and then e_4."""
    return tuple((*v, 0) for v in vectors) + ((0, 0, 0, 1),)


def test_unimodular_inverse():
    m = ((1, 2, 0), (0, 1, 3), (0, 0, 1))
    inv = unimodular_inverse(m)
    n = len(m)
    assert matmul(m, inv) == tuple(
        tuple(int(i == j) for j in range(n)) for i in range(n)
    )
    with pytest.raises(ValueError):
        unimodular_inverse(((2, 0), (0, 1)))


@pytest.mark.parametrize("m", [((1,),), ((-1,),), ((5,),), ((0,),)])
def test_adjugate_of_a_1x1_matrix_is_1(m):
    # adj(m) m = det(m) I holds with adj = (1) for every 1 x 1 matrix
    assert adjugate(m) == ((1,),)


@pytest.mark.parametrize("m, inverse", [(((1,),), ((1,),)),
                                        (((-1,),), ((-1,),))])
def test_unimodular_inverse_of_a_1x1_matrix(m, inverse):
    assert unimodular_inverse(m) == inverse
    assert matmul(m, inverse) == ((1,),)


def test_initial_seed_is_identity():
    s = initial_seed(ExchangeMatrix(MARKOV))
    assert s.c == s.g == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert s.word == ()
    for i in (1, 2, 3):
        assert tropical_sign(s, i) == 1


def test_mutation_is_involutive_on_seeds():
    rng = random.Random(2)
    for _ in range(25):
        B = random_skew_symmetrizable(rng, 3)
        s = apply_word(initial_seed(B), [rng.randint(1, 3) for _ in range(4)])
        k = rng.randint(1, 3)
        back = mutate_seed(mutate_seed(s, k), k)
        assert back.c == s.c
        assert back.g == s.g
        assert back.b.entries == s.b.entries


def test_word_then_reverse_returns_to_start():
    B = ExchangeMatrix(WING)
    word = [1, 3, 2, 2, 1, 3]
    s = apply_word(initial_seed(B), word + word[::-1])
    assert s.c == s.g == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_invariants_to_depth_four():
    for entries in (MARKOV, WING):
        B = ExchangeMatrix(entries)
        level = [initial_seed(B)]
        for _ in range(4):
            nxt = []
            for s in level:
                last = s.word[-1] if s.word else 0
                for k in range(1, 4):
                    if k == last:
                        continue
                    child = mutate_seed(s, k)
                    report = verify_seed(child)
                    assert all(report.values()), (child.word, report)
                    nxt.append(child)
            level = nxt


def adjugate_duality(c, g, d) -> bool:
    """Reference duality rule: G = D^-1 (C^T)^-1 D, with (C^T)^-1 from the
    adjugate and the entries compared as Fractions; false unless C is
    unimodular."""
    if det(c) not in (1, -1):
        return False
    ct_inv = unimodular_inverse(transpose(c))
    n = len(d)
    return all(Fraction(ct_inv[i][j] * d[j], d[i]) == g[i][j]
               for i in range(n) for j in range(n))


def square_matrices(n):
    row = st.tuples(*[st.integers(-3, 3)] * n)
    return st.tuples(*[row] * n)


@settings(max_examples=300, deadline=None)
@given(skew_symmetrizable_matrices, st.lists(st.integers(1, 4), max_size=6),
       st.sampled_from(["dual", "perturbed", "random g", "random"]),
       st.data())
def test_integer_duality_matches_the_adjugate_rule(B, word, kind, data):
    # (C, G) of a reached seed are dual; one changed entry, a random G or
    # a random pair (mostly with det C not +-1) are not
    n = B.n
    s = apply_word(initial_seed(B), [(k - 1) % n + 1 for k in word])
    c, g = transpose(s.c), transpose(s.g)  # C and G as rows
    if kind == "perturbed":
        i, j = data.draw(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)))
        bump = data.draw(st.sampled_from([-1, 1]))
        on_c = data.draw(st.booleans())
        rows = [list(r) for r in (c if on_c else g)]
        rows[i][j] += bump
        rows = tuple(map(tuple, rows))
        c, g = (rows, g) if on_c else (c, rows)
    elif kind == "random g":
        g = data.draw(square_matrices(n))
    elif kind == "random":
        c, g = data.draw(square_matrices(n)), data.draw(square_matrices(n))
    report = verify_seed(Seed(s.b, transpose(c), transpose(g)))
    assert report["duality"] == adjugate_duality(c, g, s.b.symmetrizer)
    # the pairing decides the determinants and both duality checks
    assert report["det_c"] == (det(c) in (1, -1))
    assert report["det_g"] == (det(g) in (1, -1))
    assert report["d_pairing"] == report["duality"]


def transvection_product(d, steps):
    """C and G, as vectors, with C^T D G = D: for W the product of the
    transvections I + d_j s E_ij in `steps`, G = W^-1 and C^T = D W D^-1,
    the product of the I + d_i s E_ij.  Both are integral."""
    c_t = [[int(i == j) for j in range(3)] for i in range(3)]
    g = [row[:] for row in c_t]
    for i, j, s in steps:
        if i == j:
            continue
        for row in c_t:  # C^T <- C^T (I + d_i s E_ij)
            row[j] += d[i] * s * row[i]
        # G <- (I - d_j s E_ij) G, the inverse of the step on the left
        g[i] = [x - d[j] * s * y for x, y in zip(g[i], g[j])]
    return tuple(map(tuple, c_t)), transpose(tuple(map(tuple, g)))


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(1, 12)] * 3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-2 ** 230, 2 ** 230)), max_size=3),
       st.sampled_from(["dual", "perturbed", "random", "misshapen"]),
       st.data())
def test_rank_3_d_pairing_matches_the_generic_rule(d, steps, kind, data):
    # the generic rule, reached at rank 4 through C (+) (1), G (+) (1) and
    # D (+) (1), answers for the rank-3 pair
    c, g = transvection_product(d, steps)
    assert d_paired(c, g, d)
    if kind == "perturbed":
        i, j = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        bump = data.draw(st.sampled_from([-1, 1]))
        on_c = data.draw(st.booleans())
        vectors = [list(v) for v in (c if on_c else g)]
        vectors[i][j] += bump
        vectors = tuple(map(tuple, vectors))
        c, g = (vectors, g) if on_c else (c, vectors)
    elif kind == "random":
        vectors = st.tuples(*[st.tuples(*[st.integers(-2 ** 700,
                                                      2 ** 700)] * 3)] * 3)
        c, g = data.draw(vectors), data.draw(vectors)
    elif kind == "misshapen":  # a vector cut short, or one left out
        i = data.draw(st.integers(0, 2))
        on_c = data.draw(st.booleans())
        vectors = list(c if on_c else g)
        if data.draw(st.booleans()):
            vectors[i] = vectors[i][:2]
        else:
            del vectors[i]
        vectors = tuple(vectors)
        c, g = (vectors, g) if on_c else (c, vectors)
    assert d_paired(c, g, d) == d_paired(plus_one(c), plus_one(g), d + (1,))
    if kind == "perturbed":
        assert not d_paired(c, g, d)


def embedded(s):
    """The seed of rank 4 with B (+) (0), C (+) (1) and G (+) (1)."""
    b = tuple((*row, 0) for row in s.b.entries) + ((0, 0, 0, 0),)
    return Seed(ExchangeMatrix(b), plus_one(s.c), plus_one(s.g), s.word)


def test_rank_3_report_matches_the_generic_rule():
    # reached seeds pass every check; each change below fails at least one
    rng = random.Random(21)
    failed = set()
    for _ in range(300):
        B = random_skew_symmetrizable(rng, 3)
        s = apply_word(initial_seed(B),
                       [rng.randint(1, 3) for _ in range(rng.randint(0, 7))])
        c, g = [list(v) for v in s.c], [list(v) for v in s.g]
        i, j = rng.randrange(3), rng.randrange(3)
        kind = rng.choice(["reached", "bump", "double", "mixed", "zero"])
        vectors = rng.choice([c, g])
        if kind == "bump":  # one entry moved by +-1
            vectors[i][j] += rng.choice([-1, 1])
        elif kind == "double":  # det C or det G = +-2
            vectors[i] = [2 * x for x in vectors[i]]
        elif kind == "mixed":  # c_i = e_i - e_(i+1), the others e_k: det C = 1
            c[:] = [[int(k == m) for k in range(3)] for m in range(3)]
            c[i][(i + 1) % 3] = -1
        elif kind == "zero":
            vectors[i] = [0, 0, 0]
        t = Seed(s.b, tuple(map(tuple, c)), tuple(map(tuple, g)), s.word)
        report = verify_seed(t)
        assert report == verify_seed(embedded(t))
        assert all(report.values()) == (kind == "reached")
        failed |= {name for name, ok in report.items() if not ok}
    assert failed == {"det_c", "det_g", "sign_coherence", "duality",
                      "d_pairing"}


def test_tropical_sign_flips_after_mutation():
    s = initial_seed(ExchangeMatrix(MARKOV))
    s1 = mutate_seed(s, 2)
    assert tropical_sign(s1, 2) == -1


def test_sign_coherence_guard_rejects_bad_column():
    # C is written as rows; its first column c_1 = (1, -1, 0) is mixed
    s = initial_seed(ExchangeMatrix(MARKOV))
    mixed = transpose(((1, 0, 0), (-1, 1, 0), (0, 0, 1)))
    broken = Seed(s.b, mixed, s.g, ())
    with pytest.raises(SignCoherenceViolation,
                       match=r"^mixed signs in c-vector 1 at word \(\)"
                             r": \(1, -1, 0\)$"):
        tropical_sign(broken, 1)
    zero = transpose(((0, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(SignCoherenceViolation,
                       match=r"^zero c-vector 1 at word \(\)$"):
        tropical_sign(Seed(s.b, zero, s.g), 1)


def test_mutate_seed_rejects_a_mixed_c_vector():
    # the guard fires before any vector is built
    s = initial_seed(ExchangeMatrix(MARKOV))
    mixed = transpose(((1, 0, 0), (-1, 1, 0), (0, 0, 1)))
    broken = Seed(s.b, mixed, s.g, ())
    with pytest.raises(SignCoherenceViolation):
        mutate_seed(broken, 1)


# Reference: matrix mutation entry by entry, and seed mutation on C and G
# held as rows, with the vector rules written column by column.  B's row
# rule and the seed's vector rules must agree with both.

def reference_mutate_matrix(B, k):
    b, kk, n = B.entries, k - 1, B.n
    return ExchangeMatrix(tuple(
        tuple(
            -b[i][j] if kk in (i, j)
            else b[i][j] + b[i][kk] * max(b[kk][j], 0)
            + max(-b[i][kk], 0) * b[kk][j]
            for j in range(n)
        )
        for i in range(n)
    ))


def reference_mutate_seed(s, k):
    """mu_k of a Seed whose c and g hold the rows of C and G."""
    n, kk = s.n, k - 1
    b = s.b.entries
    c_cols = [tuple(row[i] for row in s.c) for i in range(n)]
    g_cols = [tuple(row[i] for row in s.g) for i in range(n)]
    signs = {(x > 0) - (x < 0) for x in c_cols[kk]} - {0}
    assert len(signs) == 1, c_cols[kk]  # sign coherence
    eps = signs.pop()
    new_c = [
        tuple(-x for x in c_cols[kk]) if i == kk else tuple(
            x + max(eps * b[kk][i], 0) * y
            for x, y in zip(c_cols[i], c_cols[kk]))
        for i in range(n)
    ]
    gk = [-x for x in g_cols[kk]]
    for j in range(n):
        f = max(-eps * b[j][kk], 0)
        gk = [x + f * y for x, y in zip(gk, g_cols[j])]
    g_cols[kk] = tuple(gk)
    return Seed(reference_mutate_matrix(s.b, k), transpose(tuple(new_c)),
                transpose(tuple(g_cols)), s.word + (k,))


@settings(max_examples=200, deadline=None)
@given(skew_symmetrizable_matrices,
       st.lists(st.integers(1, 4), max_size=8))
def test_row_rule_matches_the_column_rule(B, word):
    s = ref = initial_seed(B)
    for k in word:
        k = (k - 1) % B.n + 1
        s, ref = mutate_seed(s, k), reference_mutate_seed(ref, k)
        assert s.b.entries == ref.b.entries
        assert s.b.symmetrizer == ref.b.symmetrizer
        assert (transpose(s.c), transpose(s.g), s.word) == (
            ref.c, ref.g, ref.word)
        # tropical duality of Nakanishi-Zelevinsky: G_t B_t = B C_t, with
        # B_t = s.b and B the initial matrix; nothing in gfans computes it
        assert matmul(ref.g, s.b.entries) == matmul(B.entries, ref.c)


@settings(max_examples=100, deadline=None)
@given(skew_symmetrizable_matrices,
       st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_a_child_builds_the_b_a_direct_mutation_builds(B, word):
    s = initial_seed(B)
    for k in word:
        k = (k - 1) % B.n + 1
        child = mutate_seed(s, k)
        assert child.symmetrizer == B.symmetrizer
        assert "b" not in vars(child)
        direct = Seed(mutate_matrix(s.b, k), child.c, child.g, child.word)
        assert child == direct
        assert hash(child) == hash(direct)
        assert repr(child) == repr(direct)
        assert child.to_json() == direct.to_json()
        s = child


def test_seed_json_is_decoded_strictly():
    good = apply_word(initial_seed(ExchangeMatrix(WING)), (1, 2)).to_json()
    for bad in ({**good, "word": [1.7]},
                {**good, "c": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]},
                {**good, "g": 5},
                {**good, "b": [[0, "-2", -4], [3, 0, -6], [2, 2, 0]]},
                []):
        with pytest.raises(ValueError):
            Seed.from_json(bad)



@pytest.mark.parametrize("field", ["b", "c", "g", "word"])
def test_seed_json_names_a_missing_field(field):
    good = apply_word(initial_seed(ExchangeMatrix(WING)), (1, 2)).to_json()
    del good[field]
    with pytest.raises(ValueError, match=f'^seed has no "{field}" field$'):
        Seed.from_json(good)


def test_mutation_direction_bounds():
    s = initial_seed(ExchangeMatrix(MARKOV))
    with pytest.raises(IndexError):
        mutate_seed(s, 0)
    with pytest.raises(IndexError):
        mutate_seed(s, 4)


@pytest.mark.parametrize("B, depth, children, new", [
    (A3, 8, 29, 13),  # most children revisit a known cone
    (TUNNEL, 6, 189, 189),  # every child is a new cone
])
def test_walk_hashes_each_child_key_once(B, depth, children, new,
                                         monkeypatch):
    # tuple hashes are not cached, and a deep Tunnel key takes microseconds
    # to hash: the membership test and the insert share one hash
    hashes = []

    class Key:
        def __init__(self, value):
            self.value = value

        def __eq__(self, other):
            return self.value == other.value

        def __hash__(self):
            hashes.append(self.value)
            return hash(self.value)

    steps = list(walk(initial_seed(ExchangeMatrix(B)),
                      lambda s: Key(cone_key(s.g)), depth, {}))
    assert len(steps) == children
    assert sum(step[3] for step in steps) == new
    assert len(hashes) == 1 + children

    # explore: the walk's table is fan.words, so besides the walk's hashes
    # only the fan.cones insert hashes a key, and no edge hashes one until
    # the adjacency is read
    hashes.clear()
    monkeypatch.setattr(gfans.explorer, "cone_key",
                        lambda rays: Key(cone_key(rays)))
    fan = explore(ExchangeMatrix(B), depth)
    assert len(fan.cones) == 1 + new
    assert len(hashes) == 1 + children + len(fan.cones)
    hashes.clear()
    assert fan.adjacency  # the first read builds it
    # every child is an edge to its parent; each frozenset hashes both keys
    assert len(hashes) == 2 * children


@settings(max_examples=60, deadline=None)
@given(skew_symmetrizable_matrices, st.integers(0, 5), st.booleans())
def test_walk_expands_each_key_once_in_letter_order(B, depth, by_cone):
    def key(s):
        return cone_key(s.g) if by_cone else (s.c, s.g)

    calls = []

    def counted(s, k):
        calls.append((s.word, k))
        return mutate_seed(s, k)

    s0 = initial_seed(B)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gfans.seeds, "mutate_seed", counted)
        walker = walk(s0, key, depth, {})
        assert calls == []  # nothing is mutated before the first next
        steps = []
        for step in walker:
            steps.append(step)
            assert len(calls) == len(steps)  # one child at a time
    # one mutation per child, in the order the children come
    assert calls == [(child.word[:-1], child.word[-1])
                     for child, _, _, _ in steps]
    lengths = [len(child.word) for child, _, _, _ in steps]
    assert lengths == sorted(lengths) and set(lengths) <= set(
        range(1, depth + 1))
    # new exactly at the first occurrence of each key
    seen = {key(s0)}
    expanded = [s0] if depth else []
    for child, child_key, _, new in steps:
        assert child_key == key(child)
        assert new == (child_key not in seen)
        seen.add(child_key)
        if new and len(child.word) < depth:
            expanded.append(child)
    # the children of each expanded seed, in letter order without its
    # last letter, one seed after the other in the order they were new
    want = []
    for s in expanded:
        last = s.word[-1] if s.word else 0
        want += [(s.word + (k,), key(s)) for k in range(1, B.n + 1)
                 if k != last]
    assert [(child.word, parent_key)
            for child, _, parent_key, _ in steps] == want



@pytest.mark.parametrize("depth", [4, 5, 6])
@pytest.mark.parametrize("by_cone", [True, False],
                         ids=["cone key", "labelled seed key"])
def test_walk_frees_each_seed_once_its_children_are_made(depth, by_cone):
    # the walk holds the unexpanded seeds of the level it expands and of
    # the next, so the seeds of the last expanded level, with the B each
    # built, go one by one as their children are made
    def key(s):
        return cone_key(s.g) if by_cone else (s.c, s.g)

    parents = []  # the seeds the last level expands, in order, as weakrefs
    index = {}  # each such seed's word -> its place in parents
    live = 0  # parents met alive after the walk moved past them
    steps = walk(initial_seed(ExchangeMatrix(TUNNEL)), key, depth, {})
    for child, _, _, new in steps:
        if len(child.word) == depth - 1 and new:
            index[child.word] = len(parents)
            parents.append(weakref.ref(child))
        elif len(child.word) == depth:
            j = index[child.word[:-1]]
            assert parents[j]() is not None
            live += sum(ref() is not None for ref in parents[:j])
    # every Tunnel child is a new cone and a new seed
    assert len(parents) == 3 * 2 ** (depth - 2)
    assert live == 0


def test_seed_json_round_trip():
    B = ExchangeMatrix(WING)
    s = apply_word(initial_seed(B), (1, 2, 3))
    back = Seed.from_json(s.to_json())
    assert back == s


def test_g_cone_rays_are_columns():
    s = apply_word(initial_seed(ExchangeMatrix(MARKOV)), (1,))
    cone = g_cone(s)
    assert cone.rays == tuple(s.g_vector(i) for i in (1, 2, 3))
    assert cone.normals == tuple(s.c_vector(i) for i in (1, 2, 3))
    assert cone.key == cone_key(cone.rays)
    # the key forgets ray order
    assert cone_key(reversed(cone.rays)) == cone.key


@settings(max_examples=100, deadline=None)
@given(matrices_of_rank_1_to_4, st.lists(st.integers(1, 4), max_size=6))
def test_g_cone_is_the_cone_the_dataclass_builds(B, word):
    # the seed's g-vectors as rays, its c-vectors as normals and B's D,
    # with facets that meet the rays as tropical duality says:
    # <D c_i, g_j> = d_i delta_ij
    s = apply_word(initial_seed(B), [k for k in word if k <= B.n])
    d, n = B.symmetrizer, B.n
    cone, want = g_cone(s), GCone(s.g, s.c, d)
    assert cone == want
    assert hash(cone) == hash(want)
    assert repr(cone) == repr(want)
    assert [[sum(x * y for x, y in zip(f, r)) for r in cone.rays]
            for f in cone.facets] == \
        [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]


def row_rule_mutate_seed(b, c, g, k):
    """mu_k of (C, G) held as rows: each row of C by B's row rule
    `mutate_row`, and G's k-th column as -g_k + sum_j [-eps b_jk]_+ g_j."""
    kk = k - 1
    eps = 1 if any(row[kk] > 0 for row in c) else -1
    new_c = tuple(mutate_row(row, b[kk], kk) for row in c)
    f = [max(-eps * row[kk], 0) for row in b]
    new_g = tuple(
        row[:kk] + (sum(x * y for x, y in zip(f, row)) - row[kk],) + row[k:]
        for row in g
    )
    return new_c, new_g


@settings(max_examples=200, deadline=None)
@given(matrices_of_rank_1_to_4, st.lists(st.integers(1, 4), max_size=10))
def test_vector_rules_match_the_row_rule(B, word):
    s = initial_seed(B)
    c, g = s.c, s.g  # the identity is its own transpose
    for k in word:
        k = (k - 1) % B.n + 1
        c, g = row_rule_mutate_seed(s.b.entries, c, g, k)
        s = mutate_seed(s, k)
        assert (transpose(s.c), transpose(s.g)) == (c, g)


def test_green_and_red_steps_match_the_row_rule():
    # on WING, D = (3, 2, 6); the word (1, 3, 1) ends in a green step
    # (eps = +1) and a red one (eps = -1), and each moves a c_j with
    # j != k and adds a g_j to -g_k, so each sign's branch of both vector
    # rules runs
    s = initial_seed(ExchangeMatrix(WING))
    assert s.symmetrizer == (3, 2, 6)
    c, g = s.c, s.g
    signs = []
    for k in (1, 3, 1):
        signs.append(tropical_sign(s, k))
        c, g = row_rule_mutate_seed(s.b.entries, c, g, k)
        child = mutate_seed(s, k)
        assert (transpose(child.c), transpose(child.g)) == (c, g)
        moved = [j for j in range(3) if j != k - 1 and child.c[j] != s.c[j]]
        flipped = tuple(-x for x in s.g[k - 1])
        if len(signs) > 1:
            assert moved and child.g[k - 1] != flipped
        s = child
    assert signs == [1, 1, -1]
    assert s.to_json() == {
        "b": [[0, -10, 4], [15, 0, -54], [-2, 18, 0]],
        "c": [[1, 0, -4], [0, 1, 0], [0, 2, -1]],
        "g": [[1, 0, 0], [12, 1, 6], [-2, 0, -1]],
        "word": [1, 3, 1],
    }


@settings(max_examples=200, deadline=None)
@given(matrices_of_rank_1_to_4, st.lists(st.integers(1, 4), max_size=6),
       st.integers(1, 4))
def test_mutation_shares_the_vectors_it_keeps(B, word, k):
    s = apply_word(initial_seed(B), [(x - 1) % B.n + 1 for x in word])
    k = (k - 1) % B.n + 1
    eps = tropical_sign(s, k)
    child = mutate_seed(s, k)
    for j in range(B.n):
        if j != k - 1:
            assert child.g[j] is s.g[j]
            if max(eps * s.b.entries[k - 1][j], 0) == 0:
                assert child.c[j] is s.c[j]


# The rank-3 branch of mutate_seed and of mutate_matrix against both
# oracles: every step's vectors, the child's B built on first read, and the
# vectors the child shares with its parent.  The tests above at ranks 1, 2
# and 4 cover the generic loops.

def rank_3_step(s, ref, c, g, k):
    """One mutation at k of a rank-3 seed s, of its column-rule twin ref
    and of its C and G rows; returns the three results and eps."""
    eps = tropical_sign(s, k)
    child = mutate_seed(s, k)
    ref = reference_mutate_seed(ref, k)
    c, g = row_rule_mutate_seed(s.b.entries, c, g, k)
    assert (transpose(child.c), transpose(child.g)) == (ref.c, ref.g)
    assert (transpose(child.c), transpose(child.g)) == (c, g)
    assert child.word == ref.word
    for j in range(3):
        if j != k - 1:
            assert child.g[j] is s.g[j]
            if max(eps * s.b.entries[k - 1][j], 0) == 0:
                assert child.c[j] is s.c[j]
    assert "b" not in vars(child)
    assert child.b.entries == ref.b.entries  # built here, on first read
    assert child.b.symmetrizer == ref.b.symmetrizer == s.b.symmetrizer
    return child, ref, c, g, eps


def rank_3_walk(entries, word):
    """The steps of `word` from the initial seed of `entries`; returns
    the seed it reaches and the signs of eps along the way."""
    s = ref = initial_seed(ExchangeMatrix(entries))
    c, g = s.c, s.g  # the identity is its own transpose
    signs = []
    for k in word:
        s, ref, c, g, eps = rank_3_step(s, ref, c, g, k)
        signs.append(eps)
    return s, signs


def entry_bits(s):
    return max(abs(x).bit_length() for v in (*s.c, *s.g, *s.b.entries)
               for x in v)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from([TUNNEL, WING]),
                 st.builds(lambda rng: random_skew_symmetrizable(rng, 3).entries,
                           st.randoms(use_true_random=False))),
       st.integers(1, 3), st.lists(st.sampled_from([1, 2, 0]), max_size=16))
def test_rank_3_mutation_matches_both_oracles(entries, first, turns):
    # each turn steps to one of the two other letters, whose entries grow,
    # or back with the last letter, a step of the other sign of eps
    word = [first]
    for turn in turns:
        word.append((word[-1] + turn - 1) % 3 + 1 if turn else word[-1])
    rank_3_walk(entries, word)


@pytest.mark.parametrize("entries, cycle, bits", [
    (TUNNEL, (1, 3, 2), 3_335),
    (WING, (3, 1, 2), 2_481),
])
def test_rank_3_mutation_matches_both_oracles_past_2_to_the_1000(
        entries, cycle, bits):
    # out along the cycle to entries past 2^1000, then back along the
    # reversed word, where each step has the other sign of eps
    out = (cycle * 6)[:12 if entries is TUNNEL else 16]
    word = out + out[::-1]
    deepest, _ = rank_3_walk(entries, out)
    assert entry_bits(deepest) == bits
    end, signs = rank_3_walk(entries, word)
    assert signs[len(out):] == [-eps for eps in reversed(signs[:len(out)])]
    assert set(signs[:len(out)]) == {1, -1}
    assert (end.c, end.g, end.b.entries) == (
        identity(3), identity(3), entries)


@pytest.mark.parametrize("entries, depth, counts", [
    (A3, 11, (29, 8, 5)),
    (B2_A1, 10, (25, 7, 7)),
    (A4, 7, (127, 43, 59)),
    (R4, 5, (271, 81, 57)),
], ids=["A3", "B2xA1", "A4", "R4"])
def test_red_steps_past_zero_entries_match_the_oracle(entries, depth,
                                                      counts):
    # one sign test per neighbour decides both the c- and the g-update;
    # a zero b_kj at eps < 0 must move neither, and c_j is then shared
    # with the parent.  The walk expands each cone once, as seeds.walk
    # does, and checks every step it makes; the counts are its steps,
    # those with eps < 0 and the zero b_kj, j != k, that those meet
    s0 = initial_seed(ExchangeMatrix(entries))
    seen = {cone_key(s0.g)}
    level = [(s0, s0)]
    steps = red = zeros = 0
    for _ in range(depth):
        nxt = []
        for s, ref in level:
            for k in range(1, s.n + 1):
                if s.word and k == s.word[-1]:
                    continue
                child = mutate_seed(s, k)
                ref_child = reference_mutate_seed(ref, k)
                assert (transpose(child.c), transpose(child.g)) == (
                    ref_child.c, ref_child.g)
                assert child.b.entries == ref_child.b.entries
                eps, row = tropical_sign(s, k), s.b.entries[k - 1]
                for j in range(s.n):
                    if j != k - 1 and eps * row[j] <= 0:
                        assert child.c[j] is s.c[j]
                steps += 1
                if eps < 0:
                    red += 1
                    zeros += row.count(0) - 1
                if cone_key(child.g) not in seen:
                    seen.add(cone_key(child.g))
                    nxt.append((child, ref_child))
        level = nxt
    assert (steps, red, zeros) == counts


def test_rank_3_mutation_raises_what_the_generic_loops_raise():
    s = initial_seed(ExchangeMatrix(MARKOV))
    for k in (0, 4):
        message = f"^mutation direction {k} out of range 1\\.\\.3$"
        with pytest.raises(IndexError, match=message):
            mutate_seed(s, k)
        with pytest.raises(IndexError, match=message):
            mutate_matrix(s.b, k)
    mixed = transpose(((1, 0, 0), (-1, 1, 0), (0, 0, 1)))
    with pytest.raises(SignCoherenceViolation,
                       match=r"^mixed signs in c-vector 1 at word \(2,\)"
                             r": \(1, -1, 0\)$"):
        mutate_seed(Seed(s.b, mixed, s.g, (2,)), 1)
    zero = transpose(((1, 0, 0), (0, 0, 0), (0, 0, 1)))
    with pytest.raises(SignCoherenceViolation,
                       match=r"^zero c-vector 2 at word \(3, 1\)$"):
        mutate_seed(Seed(s.b, zero, s.g, (3, 1)), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [True, False, 1.0, 0.0, 9.5, "1", None])
def test_a_mutation_direction_must_be_an_int(n, k):
    # mutate_seed(s, True) made a seed with the word (True,), whose JSON
    # Seed.from_json refuses, and 1.0 failed inside tuple indexing; the
    # type is checked before the range, at every rank
    s = initial_seed(random_skew_symmetrizable(random.Random(n), n))
    message = f"^mutation direction {re.escape(repr(k))} is not an int$"
    with pytest.raises(TypeError, match=message):
        mutate_seed(s, k)
    with pytest.raises(TypeError, match=message):
        mutate_matrix(s.b, k)
    with pytest.raises(TypeError, match=message):
        apply_word(s, [1, k])


def test_seed_json_keeps_the_row_layout():
    B = ExchangeMatrix(WING)
    assert apply_word(initial_seed(B), (1, 2)).to_json() == {
        "b": [[0, -2, 4], [3, 0, 6], [-2, -2, 0]],
        "c": [[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
        "g": [[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
        "word": [1, 2],
    }
    # C and G are not symmetric here, so a missing transpose would show
    s = apply_word(initial_seed(B), (2, 1))
    assert s.to_json() == {
        "b": [[0, -2, 16], [3, 0, -42], [-8, 14, 0]],
        "c": [[-1, 2, 0], [-3, 5, 0], [0, 0, 1]],
        "g": [[5, 2, 0], [-3, -1, 0], [0, 0, 1]],
        "word": [2, 1],
    }
    assert s.c_vector(1) == (-1, -3, 0)
    assert s.g_vector(1) == (5, -3, 0)


@pytest.mark.parametrize("bad", [
    # a 2x2 seed of a rank-3 b passed four of the five verify_seed checks
    {"c": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]]},
    {"g": [[5, 2], [-3, -1]]},
    {"c": [[-1, 2, 0], [-3, 5], [0, 0, 1]]},  # a ragged row
    {"g": [[5, 2, 0], [-3, -1, 0, 0], [0, 0, 1]]},
    {"c": [[-1, 2, 0], [-3, 5, 0]]},  # a missing row
    {"g": [[5, 2, 0], [-3, -1, 0], [0, 0, 1], [0, 0, 0]]},
    {"c": []},
])
def test_seed_json_rejects_a_misshapen_matrix(bad):
    good = apply_word(initial_seed(ExchangeMatrix(WING)), (2, 1)).to_json()
    with pytest.raises(ValueError, match=f"^seed {min(bad)} must be 3x3"):
        Seed.from_json({**good, **bad})


@pytest.mark.parametrize("word", [[7, 0, -1], [4], [0], [-1], [1, 2, 3, 9]])
def test_seed_json_rejects_letters_outside_1_to_n(word):
    good = apply_word(initial_seed(ExchangeMatrix(WING)), (2, 1)).to_json()
    with pytest.raises(ValueError, match=r"^seed word \[.*\] is not a word "
                                         r"in 1\.\.3$"):
        Seed.from_json({**good, "word": word})


@pytest.mark.parametrize("bad", [
    # C = I with the G of the word (2, 1): verify_seed reported
    # duality: False, and mutate_seed mutated it without complaint
    {"c": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"g": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"c": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "g": [[1, 0, 0], [0, 1, 0],
                                                   [0, 0, 2]]},
    # C^T G = I, but D = (3, 2, 6) is not I
    {"c": [[1, 2, 0], [0, 1, 0], [0, 0, 1]], "g": [[1, 0, 0], [-2, 1, 0],
                                                   [0, 0, 1]]},
])
def test_seed_json_rejects_a_c_not_dual_to_g(bad):
    good = apply_word(initial_seed(ExchangeMatrix(WING)), (2, 1)).to_json()
    assert Seed.from_json(good).to_json() == good
    with pytest.raises(ValueError, match=r"^seed c-vectors not dual to the "
                                         r"g-vectors: C\^T D G != D$"):
        Seed.from_json({**good, **bad})
    # the word is checked first, as the shapes are (a misshapen C or G is
    # never dual)
    with pytest.raises(ValueError, match=r"^seed word \[4\] is not a word"):
        Seed.from_json({**good, **bad, "word": [4]})


@pytest.mark.parametrize("c_rows, message", [
    ([[1, 0, 0], [-1, 1, 0], [0, 0, 1]], "seed c-vector 1 has mixed signs: "
                                         "[1, -1, 0]"),
    ([[1, 0, 0], [0, 1, 1], [0, 0, -1]], "seed c-vector 3 has mixed signs: "
                                         "[0, 1, -1]"),
])
def test_seed_json_rejects_a_mixed_sign_c(c_rows, message):
    # D-dual, G = C^-T for A3 with D = I, so the seed once loaded, and
    # mutating it raised SignCoherenceViolation, the bug signal, for what
    # is an input error
    g_rows = transpose(unimodular_inverse(tuple(map(tuple, c_rows))))
    doc = {"b": [list(r) for r in A3], "c": c_rows,
           "g": [list(r) for r in g_rows], "word": []}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Seed.from_json(doc)
    # the existing checks run first, and their messages stand
    with pytest.raises(ValueError, match=r"^seed c-vectors not dual"):
        Seed.from_json({**doc, "g": c_rows})
    with pytest.raises(ValueError, match=r"^seed word \[4\] is not a word"):
        Seed.from_json({**doc, "word": [4]})

import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfans import (
    ExchangeMatrix,
    NotCyclic,
    NotSkewSymmetrizable,
    apply_matrix_word,
    cyclic_presentation,
    is_cluster_cyclic,
    is_totally_infinite,
    markov_constant,
    mutate_matrix,
    skew_symmetrizer,
)
from gfans.exchange import int_rows, mutate_row
from conftest import (B2_A1, MARKOV, PINWHEEL, R4, TUNNEL, TUNNEL_CLOSEUP,
                      WIDE_TUNNEL, WING, swap_indices_12)


def random_skew_symmetrizable(rng, n):
    """B = A * D with A skew-symmetric and D a positive diagonal."""
    d = [rng.choice([1, 2, 3]) for _ in range(n)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rng.randint(-4, 4)
            a[j][i] = -a[i][j]
    return ExchangeMatrix(
        tuple(tuple(a[i][j] * d[j] for j in range(n)) for i in range(n))
    )


# The same matrices, drawn by hypothesis; a zero a_ij splits B into
# several sign-connected components.
skew_symmetrizable_matrices = st.builds(
    random_skew_symmetrizable, st.randoms(use_true_random=False),
    st.sampled_from([2, 3, 4]),
)


def test_symmetrizer_of_wing():
    assert skew_symmetrizer(WING) == (3, 2, 6)


def test_symmetrizer_skew_symmetric_is_trivial():
    assert ExchangeMatrix(MARKOV).symmetrizer == (1, 1, 1)


def test_symmetrizer_rejections():
    with pytest.raises(NotSkewSymmetrizable):
        skew_symmetrizer(((1, 0), (0, 0)))
    with pytest.raises(NotSkewSymmetrizable):
        skew_symmetrizer(((0, 1), (1, 0)))  # same sign
    with pytest.raises(NotSkewSymmetrizable):
        skew_symmetrizer(((0, 1), (0, 0)))  # mismatched zero


@pytest.mark.parametrize("bad", [2.9, 2.0, "2", Fraction(5, 2), Fraction(2),
                                 True])
def test_non_integer_entries_are_rejected(bad):
    # int() once truncated these: 2.9 -> 2, "2" -> 2, 5/2 -> 2, True -> 1
    rows = [[0, bad, 0], [-2, 0, 2], [0, -2, 0]]
    with pytest.raises(ValueError, match="entries must be ints"):
        ExchangeMatrix(rows)
    with pytest.raises(ValueError, match="entries must be ints"):
        skew_symmetrizer(rows)
    rows[0][1] = 2
    assert ExchangeMatrix(rows).entries == ((0, 2, 0), (-2, 0, 2), (0, -2, 0))


@pytest.mark.parametrize("rows", [(), ((0, 1, 0), (-1, 0, 1)),
                                  ((0, 1), (-1, 0), (0, 0)),
                                  ((0, 1), (-1, 0, 0))])
def test_non_square_entries_are_rejected(rows):
    with pytest.raises(ValueError, match="nonempty square matrix"):
        ExchangeMatrix(rows)


def test_symmetrizer_disconnected_components():
    b = ((0, -2, 0), (1, 0, 0), (0, 0, 0))
    # each sign-connected component is normalized independently
    d = skew_symmetrizer(b)
    assert d[0] * b[0][1] == -d[1] * b[1][0]
    assert d[2] == 1


def fraction_symmetrizer(b):
    """The symmetrizer as it ran on Fractions: the same checks, then the
    ratios d_j/d_i = -b_ij/b_ji propagated as Fractions."""
    n = len(b)
    for i in range(n):
        if b[i][i] != 0:
            raise NotSkewSymmetrizable(f"nonzero diagonal entry at {i}")
        for j in range(i + 1, n):
            if (b[i][j] == 0) != (b[j][i] == 0):
                raise NotSkewSymmetrizable(f"mismatched zero at ({i},{j})")
            if b[i][j] * b[j][i] > 0:
                raise NotSkewSymmetrizable(f"b_ij*b_ji > 0 at ({i},{j})")
    ratio = [None] * n
    d = [0] * n
    for root in range(n):
        if ratio[root] is not None:
            continue
        ratio[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if b[i][j] == 0 or j == i:
                    continue
                r = ratio[i] * Fraction(-b[i][j], b[j][i])
                if ratio[j] is None:
                    ratio[j] = r
                    component.append(j)
                    stack.append(j)
                elif ratio[j] != r:
                    raise NotSkewSymmetrizable("conflicting cycle products")
        denom_lcm = lcm(*(ratio[i].denominator for i in component))
        vals = [int(ratio[i] * denom_lcm) for i in component]
        g = gcd(*vals)
        for i, v in zip(component, vals):
            d[i] = v // g
    return tuple(d)


def _symmetrizer_outcome(symmetrizer, b):
    try:
        return symmetrizer(b)
    except NotSkewSymmetrizable as failure:
        return str(failure)


def test_symmetrizer_matches_the_fraction_propagation():
    # 30% of the matrices get one entry redrawn, which breaks the
    # diagonal, a zero pattern, a sign pattern or a cycle product
    rng = random.Random(22)
    failures = set()
    for _ in range(3000):
        n = rng.choice([2, 3, 4])
        b = [list(row) for row in random_skew_symmetrizable(rng, n).entries]
        if rng.random() < 0.3:
            b[rng.randrange(n)][rng.randrange(n)] = rng.randint(-6, 6)
        want = _symmetrizer_outcome(fraction_symmetrizer, b)
        assert _symmetrizer_outcome(skew_symmetrizer, b) == want
        if isinstance(want, str):
            failures.add(want.split(" at ")[0])
    assert failures == {"nonzero diagonal entry", "mismatched zero",
                        "b_ij*b_ji > 0", "conflicting cycle products"}


@settings(max_examples=150, deadline=None)
@given(skew_symmetrizable_matrices)
def test_swap_carries_the_minimal_symmetrizer(B):
    # the swapped matrix's minimal D is B's with d_1 and d_2 exchanged
    d = B.symmetrizer
    assume(set(d) != {1})
    assert swap_indices_12(B).symmetrizer == (d[1], d[0], *d[2:])


def test_mutation_is_involutive():
    rng = random.Random(7)
    for _ in range(40):
        B = random_skew_symmetrizable(rng, rng.choice([2, 3, 4]))
        for k in range(1, B.n + 1):
            assert mutate_matrix(mutate_matrix(B, k), k).entries == B.entries


def test_mutation_preserves_symmetrizer():
    # any symmetrizer of B still symmetrizes every mutation of B
    rng = random.Random(11)
    for _ in range(40):
        B = random_skew_symmetrizable(rng, 3)
        d = B.symmetrizer
        m = mutate_matrix(B, rng.randint(1, 3)).entries
        for i in range(3):
            for j in range(3):
                assert d[i] * m[i][j] == -d[j] * m[j][i]


@settings(max_examples=150, deadline=None)
@given(skew_symmetrizable_matrices,
       st.lists(st.integers(1, 4), min_size=1, max_size=8))
def test_carried_symmetrizer_is_the_minimal_one(B, walk):
    # mutation carries D instead of recomputing it; the carried D must be
    # the minimal symmetrizer of the new entries, also when B splits into
    # several components
    for k in walk:
        k = (k - 1) % B.n + 1
        child = mutate_matrix(B, k)
        assert child.symmetrizer == skew_symmetrizer(child.entries)
        back = mutate_matrix(child, k)
        assert back.entries == B.entries
        assert back.symmetrizer == B.symmetrizer
        B = child


def test_mutation_checks_the_carried_symmetrizer():
    B = ExchangeMatrix(WING)
    assert B.symmetrizer == (3, 2, 6)
    # the same entries with a symmetrizer that does not fit them
    wrong = ExchangeMatrix._with_symmetrizer(B.entries, (1, 1, 1))
    with pytest.raises(NotSkewSymmetrizable):
        mutate_matrix(wrong, 1)


def broken_pairs(B, k):
    """The pairs (i, j), i < j, at which B's carried D fails on mu_k(B),
    in the generic loop's order."""
    b, d, kk = B.entries, B.symmetrizer, k - 1
    new = [mutate_row(row, b[kk], kk) for row in b]
    new[kk] = tuple(-x for x in b[kk])
    return [(i, j) for i in range(B.n) for j in range(i + 1, B.n)
            if d[i] * new[i][j] != -d[j] * new[j][i]]


ONLY_12 = ((0, 0, 1), (0, 0, -1), (-1, 2, 0))  # D = (1, 2, 1)


@pytest.mark.parametrize("entries, d, k, pairs, message", [
    # (1, 1, 1) fails only at (1,2)
    (ONLY_12, (1, 1, 1), 1, [(1, 2)],
     "mutation in direction 1 broke d_i b_ij = -d_j b_ji at (1,2)"),
    (ONLY_12, (1, 1, 1), 2, [(1, 2)],
     "mutation in direction 2 broke d_i b_ij = -d_j b_ji at (1,2)"),
    # D = (3, 2, 6) fits WING; (1, 1, 2) fails at (0,1) and (1,2)
    (WING, (1, 1, 2), 1, [(0, 1), (1, 2)],
     "mutation in direction 1 broke d_i b_ij = -d_j b_ji at (0,1)"),
    (WING, (1, 1, 2), 2, [(0, 1), (1, 2)],
     "mutation in direction 2 broke d_i b_ij = -d_j b_ji at (0,1)"),
    (WING, (1, 1, 2), 3, [(0, 1), (1, 2)],
     "mutation in direction 3 broke d_i b_ij = -d_j b_ji at (0,1)"),
    # the other two pairs of pairs, so every place in the order counts
    (WING, (1, 2, 6), 2, [(0, 1), (0, 2)],
     "mutation in direction 2 broke d_i b_ij = -d_j b_ji at (0,1)"),
    (WING, (3, 2, 1), 2, [(0, 2), (1, 2)],
     "mutation in direction 2 broke d_i b_ij = -d_j b_ji at (0,2)"),
])
def test_rank_3_mutation_names_the_first_broken_pair(entries, d, k, pairs,
                                                     message):
    # the rank-3 branch checks the three pairs written out and names the
    # first failing one with the message the generic loop gave
    wrong = ExchangeMatrix._with_symmetrizer(ExchangeMatrix(entries).entries,
                                             d)
    assert broken_pairs(wrong, k) == pairs
    with pytest.raises(NotSkewSymmetrizable, match=f"^{re.escape(message)}$"):
        mutate_matrix(wrong, k)


@pytest.mark.parametrize("entries, d, k, message", [
    # rank 2 has one pair; D = (4, 1) fits, (1, 1) does not
    (((0, -1), (4, 0)), (1, 1), 1,
     "mutation in direction 1 broke d_i b_ij = -d_j b_ji at (0,1)"),
    (((0, -1), (4, 0)), (1, 1), 2,
     "mutation in direction 2 broke d_i b_ij = -d_j b_ji at (0,1)"),
    # rank 4, D = (1, 1, 1, 1) fits: two, three and four broken pairs
    (R4, (1, 1, 1, 2), 1,
     "mutation in direction 1 broke d_i b_ij = -d_j b_ji at (1,3)"),
    (R4, (1, 1, 2, 3), 1,
     "mutation in direction 1 broke d_i b_ij = -d_j b_ji at (0,2)"),
    (R4, (1, 2, 1, 1), 3,
     "mutation in direction 3 broke d_i b_ij = -d_j b_ji at (1,2)"),
    (R4, (1, 2, 3, 1), 3,
     "mutation in direction 3 broke d_i b_ij = -d_j b_ji at (0,2)"),
])
def test_generic_mutation_names_the_first_broken_pair(entries, d, k, message):
    # ranks other than 3 check D in the generic loop, which stops at the
    # first broken pair in its order
    wrong = ExchangeMatrix._with_symmetrizer(ExchangeMatrix(entries).entries,
                                             d)
    assert message.endswith("at ({},{})".format(*broken_pairs(wrong, k)[0]))
    with pytest.raises(NotSkewSymmetrizable, match=f"^{re.escape(message)}$"):
        mutate_matrix(wrong, k)


def _copies(B):
    """B through `dataclasses.replace`, `copy`, `deepcopy` and every pickle
    protocol."""
    yield dataclasses.replace(B)
    yield copy.copy(B)
    yield copy.deepcopy(B)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(B, protocol))


@pytest.mark.parametrize("entries", [WING, TUNNEL, MARKOV, B2_A1, R4,
                                     ((0, -1), (4, 0))])
def test_the_symmetrizer_is_data(entries):
    # D is computed once, at construction, or carried by a mutation, and
    # kept as a plain attribute; it is not a field, so ==, hash and repr
    # read the entries alone
    assert [f.name for f in dataclasses.fields(ExchangeMatrix)] == ["entries"]
    want = skew_symmetrizer(entries)
    B = ExchangeMatrix(entries)
    ways = [[B, ExchangeMatrix.from_json(B.to_json())]]
    for k in range(1, B.n + 1):
        child = mutate_matrix(B, k)
        ways[0] += [mutate_matrix(child, k), apply_matrix_word(B, (k, k))]
        ways.append([child, apply_matrix_word(B, (k,)),
                     ExchangeMatrix(child.entries)])
    for same in ways:
        first = same[0]
        for b in same + [c for b in same for c in _copies(b)]:
            assert "symmetrizer" in vars(b)
            assert b.symmetrizer == want
            assert b == first
            assert hash(b) == hash(first)
            assert repr(b) == repr(first) == \
                f"ExchangeMatrix(entries={first.entries!r})"


def test_mutation_direction_bounds():
    B = ExchangeMatrix(MARKOV)
    with pytest.raises(IndexError):
        mutate_matrix(B, 0)
    with pytest.raises(IndexError):
        mutate_matrix(B, 4)


def test_apply_word_and_json_round_trip():
    B = ExchangeMatrix(WING)
    word = (1, 3, 2, 1)
    direct = B
    for k in word:
        direct = mutate_matrix(direct, k)
    assert apply_matrix_word(B, word).entries == direct.entries
    assert ExchangeMatrix.from_json(B.to_json()).entries == B.entries
    with pytest.raises(ValueError):
        ExchangeMatrix.from_json({"n": 2, "b": [[0, -1, 1], [1, 0, -1],
                                                [-1, 1, 0]]})


def test_totally_infinite_boundary():
    assert is_totally_infinite(ExchangeMatrix(((0, -2), (2, 0))))
    assert not is_totally_infinite(ExchangeMatrix(((0, -1), (3, 0))))
    assert is_totally_infinite(ExchangeMatrix(MARKOV))


def test_cyclic_presentation_round_trip():
    for entries in (MARKOV, PINWHEEL, WING, TUNNEL):
        B = ExchangeMatrix(entries)
        pres = cyclic_presentation(B)
        assert pres.to_matrix().entries == B.entries
    with pytest.raises(ValueError, match="requires rank 3"):
        cyclic_presentation(ExchangeMatrix(((0, -2), (2, 0))))


def test_cyclic_detection():
    assert cyclic_presentation(ExchangeMatrix(MARKOV)).cyclic
    assert not cyclic_presentation(ExchangeMatrix(WING)).cyclic


@pytest.mark.parametrize("entries,constant,cyclic_verdict", [
    (MARKOV, 4, True),
    (PINWHEEL, 2, True),
    (TUNNEL, 28, False),
    (WIDE_TUNNEL, 11, False),
    (TUNNEL_CLOSEUP, 39, False),
])
def test_markov_constants(entries, constant, cyclic_verdict):
    B = ExchangeMatrix(entries)
    assert markov_constant(B) == constant
    assert is_cluster_cyclic(B) == cyclic_verdict


def test_markov_constant_requires_cyclic():
    with pytest.raises(NotCyclic):
        markov_constant(ExchangeMatrix(WING))


def test_markov_constant_is_mutation_invariant_while_cyclic():
    # a cluster-cyclic matrix stays cyclic, and C(B) is constant on its class
    B = ExchangeMatrix(PINWHEEL)
    rng = random.Random(3)
    cur = B
    for _ in range(30):
        cur = mutate_matrix(cur, rng.randint(1, 3))
        assert cyclic_presentation(cur).cyclic
        assert markov_constant(cur) == 2


def test_swap_indices_12():
    B = ExchangeMatrix(WING)
    S = swap_indices_12(B)
    assert S[1, 2] == B[2, 1]
    assert S[3, 1] == B[3, 2]
    assert swap_indices_12(S).entries == B.entries
    assert (B.symmetrizer, S.symmetrizer) == ((3, 2, 6), (2, 3, 6))



def _int_rows_by_any(rows, what):
    """The type rule as first written, with a generator any() per test."""
    if type(rows) is not list or any(type(r) is not list for r in rows) \
            or any(type(x) is not int for r in rows for x in r):
        raise ValueError(f"{what} must be integers in JSON lists")
    return tuple(map(tuple, rows))


def _outcome(decode, rows):
    try:
        return "ok", decode(rows, "rows")
    except ValueError as exc:
        return "rejected", str(exc)


# every JSON type a decoded document can hold, nested one level; well
# formed rows and rows with one stray entry are drawn on purpose, so that
# both outcomes and near misses are common
_json_values = st.one_of(
    st.integers(), st.booleans(), st.floats(), st.text(max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.integers(), max_size=2),
)
_int_row = st.lists(st.integers(), max_size=4)
_stray_row = st.builds(lambda row, i, x: row[:i] + [x] + row[i:],
                       _int_row, st.integers(0, 4), _json_values)
_int_rows_inputs = st.one_of(
    st.lists(_int_row, max_size=4),
    st.lists(st.one_of(_int_row, _stray_row), max_size=4),
    st.lists(st.one_of(_int_row, _json_values), max_size=4),
    st.lists(st.lists(_json_values, max_size=4), max_size=4),
    _json_values,
)


@settings(max_examples=500, deadline=None)
@given(_int_rows_inputs)
def test_int_rows_accepts_what_the_any_rule_accepts(rows):
    assert _outcome(int_rows, rows) == _outcome(_int_rows_by_any, rows)

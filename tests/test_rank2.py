from fractions import Fraction
from itertools import islice

import pytest

from gfans import (
    ExchangeMatrix,
    QuadraticNumber,
    chebyshev_u,
    g_sequence,
    initial_seed,
    limit_vectors,
    nu_ratio,
    rank2_matrices,
)
from gfans.rank2 import g_vectors
from gfans.seeds import apply_word, transpose


def word_to(t):
    """Alternating mutation word from vertex 0 to vertex t: directions
    1,2,1,... rightward and 2,1,2,... leftward."""
    if t >= 0:
        return [1 + (i % 2) for i in range(t)]
    return [2 - (i % 2) for i in range(-t)]


def chebyshev_closed_form(t, a, b):
    """(C_t, G_t) as rows by the paper's closed forms in U_k = U_k(kappa/2),
    kappa^2 = ab: an oracle for `rank2_matrices`, which reads the g-vector
    walk instead.  The forms read U_k only for even k, where U_k is an
    integer, and nu*U_k or U_k/nu only for odd k, where U_k = odd*kappa,
    so nu*U_k = odd*b and U_k/nu = odd*a."""
    if t == 1:
        return ((-1, 0), (0, 1)), ((-1, 0), (0, 1))

    def u(k):
        return chebyshev_u(k, a * b)[0]

    def nu_u(k):
        return chebyshev_u(k, a * b)[1] * b

    def inv_nu_u(k):
        return chebyshev_u(k, a * b)[1] * a

    if t >= 2 and t % 2 == 0:
        n = t // 2
        c = ((-u(2 * n - 2), nu_u(2 * n - 3)),
             (-inv_nu_u(2 * n - 3), u(2 * n - 4)))
        g = ((u(2 * n - 4), nu_u(2 * n - 3)),
             (-inv_nu_u(2 * n - 3), -u(2 * n - 2)))
    elif t >= 3:
        n = (t - 1) // 2
        c = ((u(2 * n - 2), -nu_u(2 * n - 1)),
             (inv_nu_u(2 * n - 3), -u(2 * n - 2)))
        g = ((u(2 * n - 2), nu_u(2 * n - 3)),
             (-inv_nu_u(2 * n - 1), -u(2 * n - 2)))
    elif t <= 0 and t % 2 == 0:
        n = -t // 2
        c = ((-u(2 * n - 2), nu_u(2 * n - 1)),
             (-inv_nu_u(2 * n - 1), u(2 * n)))
        g = ((u(2 * n), nu_u(2 * n - 1)),
             (-inv_nu_u(2 * n - 1), -u(2 * n - 2)))
    else:
        n = (-t - 1) // 2
        c = ((u(2 * n), -nu_u(2 * n - 1)),
             (inv_nu_u(2 * n + 1), -u(2 * n)))
        g = ((u(2 * n), nu_u(2 * n + 1)),
             (-inv_nu_u(2 * n - 1), -u(2 * n)))
    return c, g


def test_matrices_equal_chebyshev_closed_forms():
    # the walk and the paper's formula agree on every a, b in 1..9 and t in
    # -40..40; a pair of finite type is refused before any g-vector is read
    for a in range(1, 10):
        for b in range(1, 10):
            for t in range(-40, 41):
                if a * b < 4:
                    with pytest.raises(ValueError,
                                       match="requires a, b >= 1 with ab >= 4"):
                        rank2_matrices(t, a, b)
                else:
                    assert rank2_matrices(t, a, b) == \
                        chebyshev_closed_form(t, a, b), (t, a, b)


@pytest.mark.parametrize("a,b", [(3, 2), (2, 2), (4, 1), (5, 1), (1, 4),
                                 (7, 3)])
def test_closed_forms_equal_mutation(a, b):
    B = ExchangeMatrix(((0, -b), (a, 0)))
    for t in range(-30, 31):
        s = apply_word(initial_seed(B), word_to(t))
        c, g = rank2_matrices(t, a, b)  # C and G as rows
        assert c == transpose(s.c), (t, a, b)
        assert g == transpose(s.g), (t, a, b)


def test_golden_forward_sequence():
    want = [(-1, 0), (0, -1), (1, -3), (2, -5), (5, -12), (8, -19), (19, -45)]
    got = [g_sequence("forward", m, 3, 2) for m in range(1, 8)]
    assert got == want


def test_golden_backward_sequence():
    want = [(2, -1), (5, -3), (8, -5), (19, -12), (30, -19), (71, -45),
            (112, -71)]
    got = [g_sequence("backward", m, 3, 2) for m in range(1, 8)]
    assert got == want


@pytest.mark.parametrize("a,b", [(3, 2), (2, 2), (5, 1)])
def test_recursions_from_any_window(a, b):
    # g_{m+2} = -g_m + coeff*g_{m+1} with coefficient a for odd m, b for even
    for m in range(1, 15):
        g0 = g_sequence("forward", m, a, b)
        g1 = g_sequence("forward", m + 1, a, b)
        g2 = g_sequence("forward", m + 2, a, b)
        f = a if m % 2 == 1 else b
        assert g2 == (-g0[0] + f * g1[0], -g0[1] + f * g1[1])


def test_band_bounds_are_g_vector_slopes():
    # the identity the band search rests on: nu U_{n+1}/U_n is the slope
    # x/-y of the backward g'_{n+1}, and nu U_{n-1}/U_n that of the
    # forward g_{n+2}, with y < 0 on both
    for a in range(1, 8):
        for b in range(1, 8):
            if a * b < 4:
                continue
            backward = list(islice(g_vectors("backward", a, b), 40))
            forward = list(islice(g_vectors("forward", a, b), 1, 41))
            for n in range(40):
                x, y = backward[n]
                assert y < 0 and Fraction(x, -y) == nu_ratio(n + 1, n, a, b)
                x, y = forward[n]
                assert y < 0 and Fraction(x, -y) == nu_ratio(n - 1, n, a, b)


def test_sequences_match_seed_g_vectors():
    # the m-th forward g-vector is the column mutated last on the way to t=m
    a, b = 3, 2
    B = ExchangeMatrix(((0, -b), (a, 0)))
    for m in range(1, 10):
        s = apply_word(initial_seed(B), word_to(m))
        col = 1 if m % 2 == 1 else 2
        assert s.g_vector(col) == g_sequence("forward", m, a, b)
        s = apply_word(initial_seed(B), word_to(-m))
        col = 2 if m % 2 == 1 else 1
        assert s.g_vector(col) == g_sequence("backward", m, a, b)


def test_limit_vectors_are_eigendirections():
    # the limit slope y = x + z*sqrt(delta) solves b*y^2 + ab*y + a = 0, the
    # fixed-direction condition of the two-step recursion; its rational and
    # irrational parts vanish separately
    for a, b in [(3, 2), (2, 2), (7, 3)]:
        (one, y), (_, yp) = limit_vectors(a, b)
        assert one == QuadraticNumber(1, 0)
        for s in (y, yp):
            assert b * (s.x * s.x + s.y * s.y * s.delta) + a * b * s.x \
                + a == 0
            assert (2 * b * s.x + a * b) * s.y == 0
        if a * b > 4:
            # y' - y = (y'.y - y.y) * sqrt(delta) over one delta
            assert y.delta == yp.delta == a * b * (a * b - 4)
            assert y.x == yp.x
            assert QuadraticNumber(0, yp.y - y.y, y.delta).sign() == 1
        else:
            assert y == yp


def test_limit_vectors_attract_the_sequences():
    a, b = 3, 2
    (_, y), (_, yp) = limit_vectors(a, b)
    g = g_sequence("forward", 30, a, b)
    assert abs(g[1] / g[0] - float(y)) < 1e-9
    g = g_sequence("backward", 30, a, b)
    assert abs(g[1] / g[0] - float(yp)) < 1e-9


def test_affine_case_collapses():
    v, vp = limit_vectors(4, 1)
    assert v == vp == (QuadraticNumber(1, 0), QuadraticNumber(-2, 0))
    assert v[1].delta == 0


def test_product_of_slopes():
    # Vieta: y * y' = a/b, with y and y' over one delta
    for a, b in [(3, 2), (5, 1), (2, 2)]:
        (_, y), (_, yp) = limit_vectors(a, b)
        delta = y.delta or yp.delta
        assert y.x * yp.x + y.y * yp.y * delta == Fraction(a, b)
        assert y.x * yp.y + y.y * yp.x == 0


def test_rejects_finite_type_pairs():
    with pytest.raises(ValueError):
        g_sequence("forward", 3, 1, 3)
    with pytest.raises(ValueError):
        rank2_matrices(2, 1, 2)
    with pytest.raises(ValueError):
        limit_vectors(1, 1)
    with pytest.raises(ValueError):
        g_sequence("sideways", 1, 3, 2)
    with pytest.raises(ValueError, match="m must be >= 1"):
        g_sequence("forward", 0, 3, 2)


AB_INTS = "a and b must be ints"


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: g_sequence("forward", 2, 2.5, 2), AB_INTS,
                 id="g_sequence-a-2.5"),
    pytest.param(lambda: list(islice(g_vectors("forward", 3, True), 2)),
                 AB_INTS, id="g_vectors-b-True"),
    pytest.param(lambda: rank2_matrices(3, 2.5, 2), AB_INTS,
                 id="rank2_matrices-a-2.5"),
    pytest.param(lambda: rank2_matrices(3, 2, 4.0), AB_INTS,
                 id="rank2_matrices-b-4.0"),
    pytest.param(lambda: limit_vectors(True, 4), AB_INTS,
                 id="limit_vectors-a-True"),
    pytest.param(lambda: g_sequence("forward", 2.0, 3, 2), "m must be an int",
                 id="g_sequence-m-2.0"),
    pytest.param(lambda: g_sequence("forward", True, 3, 2), "m must be an int",
                 id="g_sequence-m-True"),
    pytest.param(lambda: rank2_matrices(2.0, 3, 2), "t must be an int",
                 id="rank2_matrices-t-2.0"),
])
def test_non_int_parameters_are_refused(call, message):
    # a float a or b would make float g-vectors, which nothing upstream
    # of the renderer may hold
    with pytest.raises(ValueError, match=f"^{message}, not "):
        call()

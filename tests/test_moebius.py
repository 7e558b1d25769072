"""Parameter dynamics of the one-dimensional Moebius family."""

import cmath
import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from periodmaps.algebra import (
    MPoly, equal_up_to_scale, exact_divide, normalize, parse_poly, roots,
    strip_var_monomials)
from periodmaps.algebra.gcd import _prs_gcd
from periodmaps.catalog import catalog_get
from periodmaps.elim import derive, fixtures_for
from periodmaps.errors import (
    DegenerateParameterError, InexactDivisionError, MissingParameterError)
from periodmaps.moebius import (
    derive_gamma, power_coefficients, step_matrix_power)

GAMMA_TEXTS = {
    2: "1 + h",
    3: "1 + h + h^2 + a*b*h",
    4: "1 + h^2 + 2*a*b*h",
    5: "1 + h + h^2 + h^3 + h^4 + a*b*h*(3 + (4 + a*b)*h + 3*h^2)",
    6: "1 - h + h^2 + 3*a*b*h",
}


@pytest.mark.parametrize("n", sorted(GAMMA_TEXTS))
def test_derive_gamma_closed_forms(n):
    want = parse_poly(GAMMA_TEXTS[n], ("a", "b", "h"))
    assert derive_gamma(n) == want


def _recurrence(n, a=None, b=None):
    """The one moebius2d recurrence `derive` gives, at (a, b) if given,
    normalised as the pins below were written: a positive leading term in
    the variable order (b, a, X, x), printed in (x, X[, a, b])."""
    params = None if a is None else {"a": Fraction(a), "b": Fraction(b)}
    got = derive("moebius2d", n, params=params)
    assert len(got) == 1
    F = got[0].with_vars(("b", "a", "X", "x")).primitive()
    return F.with_vars(("x", "X") if params else ("x", "X", "a", "b"))


@pytest.mark.parametrize("n", sorted(GAMMA_TEXTS))
def test_recurrence_matches_recorded_polynomial(n):
    fix = fixtures_for("moebius2d", n)[0]
    assert equal_up_to_scale(_recurrence(n), fix.F)


def test_recurrence_with_numeric_parameters():
    fix = fixtures_for("moebius2d", 4)[0]
    F = _recurrence(4, a=1, b=2)
    want = fix.F.subs_values({"a": Fraction(1), "b": Fraction(2)})
    assert equal_up_to_scale(F, want)
    assert set(F.used_vars()) <= {"x", "X"}


# sha256 of str(F), as the per-term clearing loop sum_k c_k up^k down^(m-k)
# of gamma(X(1 + bx)/(x + a)) wrote it; the elimination route gives the same
# text
RECURRENCE_SHA256 = {
    (2, None): "406eddb4cf815e0ec433554e162aa545eb19321657aaf63c78e832ac44ecb74f",
    (3, None): "39f3f6bd0a638130ec8e828dd9352ac7b97e0b692ad002e38f45821fb8e58208",
    (4, None): "96fc80610370d649a663dc31f764b605f7f12cef8bb655b359dee48b5869a2ce",
    (5, None): "9016e0153d1ce760b2c2827530cd772a10c58c8d3f1e5a6785dea766335f0a2d",
    (6, None): "eef7ea84dc3ce704972a0a4702a73b03de801c9099e69760ea956435bedf771d",
    (7, None): "2792cde6e09ab456b7b20c08f9678eb6d41652eb2ad396b446961da7c11f592e",
    (8, None): "3e522902d94a9b57c182dc5efc99ee7e1451d4636e95b61573f30174962cd16d",
    (2, (1, 2)): "9c64633d754c5b10eec16bca0dd2377d55585abe3c24fb7f7f2921137b227bce",
    (3, (1, 2)): "a5a38438a9fe51c0646befb912df811153837643abdf4b7b815a37f05c7ab5ba",
    (4, (1, 2)): "95d27d71ed537812180c2e3dd58d99023ec7397a09d6634474f37aaa2b313685",
    (5, (1, 2)): "83f562d845df81d632ce2f1d85708d1fa4223d34ced356daad4d2664a2c7c384",
    (6, (1, 2)): "648e2454ebacd08ba34e16c7d5da23003b9cae9ca847b09826b1711351b1bfb9",
    (7, (1, 2)): "16056574d6c1ca3bd24bdf37d3791470260887e081f5ff1e12fd5448189feb5b",
    (8, (1, 2)): "160f981a53fb9f6ad4b60f464981a6309e07b59a51f2f8a5df04829a7d25f4b8",
}


@pytest.mark.parametrize("n,ab", sorted(RECURRENCE_SHA256,
                                        key=lambda k: (k[1] is None, k)))
def test_recurrence_text_is_pinned(n, ab):
    F = _recurrence(n) if ab is None else _recurrence(n, *ab)
    got = hashlib.sha256(str(F).encode()).hexdigest()
    assert got == RECURRENCE_SHA256[(n, ab)]


# sha256 of str(F) at fractional (a, b), as the closed form wrote it when it
# passed h = X(1 + bx)/(x + a) to compose_parts as a RatFunc
FRACTIONAL_SHA256 = {
    (2, "2", "1/3"): "f780dfb75fd8dca0a8b23d849d0ebe1143cd6606d8b67f23a097600209c5ee48",
    (3, "2", "1/3"): "9e7cf3664c5bc7976aec65b36f58500d1ed50d936eacea6b04a6e31ec81f4adf",
    (4, "2", "1/3"): "af74fe8132b5d6e37392ea0a888122b54afd90c22f794ff397671b41c54d1247",
    (5, "2", "1/3"): "489068dc32135acb1322111ec5c2fafffb52463b651224429b89cbd5f0dde662",
    (6, "2", "1/3"): "5888a86490bd1389ec011c3578be4f8e5287994af59f828b09a73372be0eb818",
    (7, "2", "1/3"): "988016f202566ba10588e9bfe1b33b3f6320c56d3566f52348f57b71b77ca481",
    (8, "2", "1/3"): "d5bca6cae65f13efc83e904e0929539b5ca0894945ddbbf71eda8bd3ebeb1a1d",
    (2, "-3/2", "1/2"): "a85da21d02e01f1bdc907cbaf6632c1af861ba5311c242ce9fa48a43e0de7827",
    (3, "-3/2", "1/2"): "65866187a748f3bde535593ab505ecd62989c5b58ca10a7454f97a1479383f93",
    (4, "-3/2", "1/2"): "aa63c412426e0b0536e27ccf186adad9e3b345a31e9f40b14d3ee711a4d5997c",
    (5, "-3/2", "1/2"): "6560bae40aaa17413e863fb02d6df6503c89c572fb4e099a36fbc5e3be735484",
    (6, "-3/2", "1/2"): "5aacc332947eb0279ddaf2f5d06381149d31c3ca5e8a72f262863b0acd80b400",
    (7, "-3/2", "1/2"): "a2c4d486c595ca518d5fc6220a33abd687efc0e009c96e21005f0de30f2c1878",
    (8, "-3/2", "1/2"): "b39dc3949878a5147925d8f8a0dc78ff46c7f13dfbc707a891c9c17b268157d9",
    (2, "5/7", "-7/4"): "250199a496aa6ee695826d849aa913dc08cc116dba6574da92e900c0e045ec1c",
    (3, "5/7", "-7/4"): "3beab809fd3c772e9a5c851c8e9a77017b42091bdaf44488d787c485705f30b1",
    (4, "5/7", "-7/4"): "810730f372a3281b5232b7b9e4821de422fd330b5fa70e8b67ec422ac6c9d4b3",
    (5, "5/7", "-7/4"): "97d8b12a1d12cb8a5c3c5bf4082ac8a1d8507c0da98418bbe2e7d24e0c58ed15",
    (6, "5/7", "-7/4"): "3d5997bdbc04656a07f0f219e15cb4aa318419fa3f0c6f36f0658520bef49903",
    (7, "5/7", "-7/4"): "670b8e8c88bde8c8ecf117c610e15f078cea1f5c3ea6f204229c59b065ae97d1",
    (8, "5/7", "-7/4"): "011b450c3dd5e312468cdfb4d712ba05ae25d69c54907d5b7a3683e554df9d55",
}


@pytest.mark.parametrize("n,a,b", sorted(FRACTIONAL_SHA256))
def test_recurrence_text_is_pinned_at_fractional_parameters(n, a, b):
    F = _recurrence(n, a, b)
    got = hashlib.sha256(str(F).encode()).hexdigest()
    assert got == FRACTIONAL_SHA256[(n, a, b)]


def test_recurrence_rejects_half_specified_parameters():
    with pytest.raises(MissingParameterError):
        derive("moebius2d", 3, params={"a": Fraction(1)})
    with pytest.raises(DegenerateParameterError):
        derive("moebius2d", 3, params={"a": Fraction(2), "b": Fraction(1, 2)})


def test_scalar_orbit_is_periodic_on_the_parameter_variety():
    # with gamma(a, b, h) = 0 the scalar map x -> h(x + a)/(1 + bx)
    # closes up after n steps
    for n in (3, 4, 6):
        gamma = derive_gamma(n).subs_values(
            {"a": Fraction(1), "b": Fraction(2)})
        dense = [c.constant_term() for c in gamma.as_univariate("h")]
        for h in roots([complex(c) for c in reversed(dense)], tol=1e-10):
            x = 0.37 + 0.11j
            for _ in range(n):
                x = h * (x + 1) / (1 + 2 * x)
            assert abs(x - (0.37 + 0.11j)) < 1e-8, (n, h)


def _k_step_params(k, point):
    # M^k = [[p, q], [r, s]] read back as (a_k, b_k, h_k) = (q/p, r/s, p/s)
    (p, q), (r, s) = (
        [e.subs_values(point).constant_term() for e in row]
        for row in step_matrix_power(k))
    return q / p, r / s, p / s


def test_param_step_composes_the_map():
    # the parameters of the k-step map come from M^k: three steps of
    # x -> h(x + a)/(1 + bx) are one step with (a_3, b_3, h_3)
    a, b, h = Fraction(2), Fraction(1, 3), Fraction(5, 7)
    x = Fraction(4, 9)
    y = x
    for _ in range(3):
        y = h * (y + a) / (1 + b * y)
    a3, b3, h3 = _k_step_params(3, {"a": a, "b": b, "h": h})
    assert y == h3 * (x + a3) / (1 + b3 * x)


def test_matrix_powers_agree_with_param_step():
    # for each k, (a_k, b_k, h_k) read from M^k is the k-step map
    # x -> h_k(x + a_k)/(1 + b_k x); four points pin a Moebius map
    a, b, h = Fraction(2), Fraction(1, 3), Fraction(5, 7)
    point = {"a": a, "b": b, "h": h}
    xs = (Fraction(4, 9), Fraction(-2), Fraction(3, 5), Fraction(0))
    ys = list(xs)
    for k in range(1, 6):
        ys = [h * (y + a) / (1 + b * y) for y in ys]
        ak, bk, hk = _k_step_params(k, point)
        assert ys == [hk * (x + ak) / (1 + bk * x) for x in xs], k


def test_cayley_hamilton_gives_every_matrix_power():
    # M^n = alpha_n*M - det*alpha_(n-1)*I, against the matrix products
    (m00, m01), (m10, m11) = step_matrix_power(1)
    det = m00 * m11 - m01 * m10
    for n in range(1, 10):
        prev, alpha = power_coefficients(n)
        (p, q), (r, s) = step_matrix_power(n)
        assert p == alpha * m00 - det * prev, n
        assert q == alpha * m01 and r == alpha * m10, n
        assert s == alpha * m11 - det * prev, n


@lru_cache(maxsize=None)
def _return_factor_by_gcd(n):
    """The gcd of the period-n return numerators of M^(n+1), monomials
    stripped: the route derive_gamma took before Cayley-Hamilton."""
    (p, q), (r, s) = step_matrix_power(n + 1)
    a, b, h = (MPoly.var(v, ("a", "b", "h")) for v in ("a", "b", "h"))
    return strip_var_monomials(
        _prs_gcd(_prs_gcd(q - a * p, r - b * s), p - h * s))


def _divide_out(g, f, floor):
    while g.total_degree() > floor:
        try:
            g = exact_divide(g, f)
        except InexactDivisionError:
            break
    return g


@lru_cache(maxsize=None)
def _gamma_by_gcd(n):
    """derive_gamma as it was: the return factor with the fixed-point
    factor and every lower-period generator divided out."""
    fixed = _return_factor_by_gcd(1)
    g = _divide_out(_return_factor_by_gcd(n), fixed, fixed.total_degree())
    for d in range(2, n):
        if n % d == 0:
            g = _divide_out(g, _gamma_by_gcd(d), 0)
    return normalize(strip_var_monomials(g))


@pytest.mark.parametrize("n", range(2, 9))
def test_derive_gamma_matches_the_gcd_route(n):
    got, want = derive_gamma(n), _gamma_by_gcd(n)
    assert got.vars == want.vars == ("h", "b", "a")
    assert got.terms == want.terms
    assert str(got) == str(want)


def _distance_from_scalar(m):
    """How far a 2x2 matrix is from a multiple of I, relative to its size."""
    off = max(abs(m[0, 1]), abs(m[1, 0]), abs(m[0, 0] - m[1, 1]))
    return off / np.abs(m).max()


@pytest.mark.parametrize("n", range(2, 9))
def test_derive_gamma_against_matrix_order_oracle(n):
    # gamma_n has degree phi(n) in h, and at (a, b) = (1, 2) its roots h are
    # exactly the one-step matrices [[h, h*a], [b, 1]] of projective order n
    gamma = derive_gamma(n)
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert gamma.degree("h") == phi
    a, b = 1, 2
    at = gamma.subs_values({"a": Fraction(a), "b": Fraction(b)})
    dense = [float(c.constant_term()) for c in at.as_univariate("h")]
    hs = np.roots(dense[::-1])
    assert len(hs) == phi
    for h in hs:
        m = np.array([[h, h * a], [b, 1]], dtype=complex)
        assert _distance_from_scalar(np.linalg.matrix_power(m, n)) < 1e-9
        for d in range(1, n):
            if n % d == 0:
                assert _distance_from_scalar(
                    np.linalg.matrix_power(m, d)) > 1e-6, (h, d)


def test_degenerate_parameter_guards():
    # a*b = 1 makes M = [[h, h*a], [b, 1]] singular: a constant map
    with pytest.raises(DegenerateParameterError):
        catalog_get("moebius2d", a=2, b=Fraction(1, 2))

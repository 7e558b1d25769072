"""Planar QRT dynamics and the induced recurrence polynomials."""

import hashlib
from fractions import Fraction

import pytest

from periodmaps.algebra import (
    MPoly, RatFunc, equal_up_to_scale, roots)
from periodmaps.biquad import follow, gamma_biquad, s_value
from periodmaps.qrt import (
    QRTParams, gamma_in_h, qrt_apply, qrt_invariant, qrt_recurrence,
    reduce_to_biquadratic)
QP = (1, 2, 0, 3, 1, 2)
QPP = (0, 1, 1, 0, 2, 1)


def _params():
    return QRTParams.of(QP, QPP)


def test_invariant_conserved_along_numeric_orbit():
    P = _params()
    pt = (0.7, -0.4)
    h0 = qrt_invariant(P, pt)
    for _ in range(6):
        pt = qrt_apply(P, pt)
        assert abs(qrt_invariant(P, pt) - h0) < 1e-9


def test_reduction_to_biquadratic_is_consistent_with_the_orbit():
    # on a level set h, consecutive x-coordinates satisfy the reduced
    # one-dimensional correspondence
    P = _params()
    pt = (0.7, -0.4)
    h = qrt_invariant(P, pt)
    q = reduce_to_biquadratic(P, h)
    xs = [pt[0]]
    for _ in range(5):
        pt = qrt_apply(P, pt)
        xs.append(pt[0])
    for k in range(len(xs) - 1):
        assert abs(s_value(q, xs[k + 1], xs[k])) < 1e-7


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gamma_in_h_roots_give_periodic_level_sets(n):
    P = _params()
    g = gamma_in_h(P, n)
    dense = [c.constant_term() for c in g.as_univariate("h")]
    hs = roots([complex(c) for c in reversed(dense)], tol=1e-9)
    assert hs, "the pencil polynomial must have roots"
    hit = 0
    for h in hs:
        q = reduce_to_biquadratic(P, h)
        assert abs(complex(gamma_biquad(n, q))) < 1e-6 * (1 + abs(h)) ** 6
        try:
            orbit = follow(q, 0.23 + 0.19j, n)
        except Exception:
            continue
        if abs(orbit[n] - orbit[0]) < 1e-6:
            hit += 1
    assert hit >= 1


def test_recurrence_matches_direct_rational_arithmetic():
    # independent reconstruction: evaluate the generating polynomial on
    # q' + H(x, X) q'' with plain rational-function arithmetic
    P = _params()
    rec = qrt_recurrence(P, 3)
    from periodmaps.qrt import qrt_invariant_ratfunc, _rename
    H0 = qrt_invariant_ratfunc(QP, QPP)
    num = _rename(H0.num.with_vars(("x", "y")), "y", "X")
    den = _rename(H0.den.with_vars(("x", "y")), "y", "X")
    H = RatFunc(num, den)
    vals = {}
    for name, ap, app in zip(("a", "b", "c", "d", "e", "f"), P.qp, P.qpp):
        vals[name] = RatFunc.const(ap) + H * RatFunc.const(app)
    combo = (vals["a"] * vals["f"] - vals["b"] * vals["e"]
             - RatFunc.const(3) * vals["c"] * vals["c"]
             + vals["c"] * vals["d"])
    assert equal_up_to_scale(combo.num, rec.F)


@pytest.mark.parametrize("n", [3, 4])
def test_recurrence_roots_lie_on_periodic_level_sets(n):
    # every root X of F(x0, X) = 0 puts (x0, X) on a level set whose
    # reduced correspondence closes up after n steps
    P = _params()
    rec = qrt_recurrence(P, n)
    from periodmaps.qrt import qrt_invariant_ratfunc
    H = qrt_invariant_ratfunc(QP, QPP).with_vars(("x", "y"))
    g = gamma_in_h(P, n)
    scale = 1 + float(g.max_abs_coeff())
    closed = tried = 0
    for x0 in (0.41, -0.77 + 0.3j, 1.9):
        for X in rec.roots_at(x0, tol=1e-8):
            h = H.eval([complex(x0), X])
            assert abs(g.eval([h])) < 1e-5 * scale * (1 + abs(h)) ** g.degree("h")
            q = reduce_to_biquadratic(P, h)
            try:
                orbit = follow(q, x0, n)
            except Exception:
                continue
            tried += 1
            if abs(orbit[n] - orbit[0]) < 1e-5:
                closed += 1
    assert tried >= 3 and closed >= tried // 2


# sha256 of str(F) at the two parameter sets of the benchmark campaign, as
# the per-term clearing loop sum_k c_k N^k D^(m-k) wrote it before
# qrt_recurrence went through compose_parts
RECURRENCE_SHA256 = {
    ((1, 2, 0, 3, 1, 2), (0, 1, 1, 0, 2, 1)): {
        3: "d135bec57d859a5f3944f41f7ee1c48ebf3da7994eb61bf5898c88e2dd692983",
        4: "d1ff6528d099d370603f73d68d2996db539b47d66708db4cb183c237e345a5e9",
        5: "2aefbc588659e7ff54693124f358064d291ff4b15be5b5fec1931527379c3693"},
    ((2, -1, 1, 0, 3, 1), (1, 0, -1, 2, 1, 1)): {
        3: "7f6bc495ca1ae3d875537f6dd26161c8a78d8b654efd8f841846744d80b8651a",
        4: "ef889d0ce97d4ac55136557ad912fa81d26b4ddfdda2cdea5a26edcdbb224e9c",
        5: "b61dc1db8ec629ddcdb84a1bc7d4667e5051d67d51021d954a78155cc5173120"},
}


@pytest.mark.parametrize("qp,qpp", sorted(RECURRENCE_SHA256))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_recurrence_text_is_pinned(qp, qpp, n):
    F = qrt_recurrence(QRTParams.of(qp, qpp), n).F
    got = hashlib.sha256(str(F).encode()).hexdigest()
    assert got == RECURRENCE_SHA256[(qp, qpp)][n]


def test_qrt_params_validate_their_shape():
    from periodmaps.errors import DegenerateParameterError
    with pytest.raises(DegenerateParameterError):
        QRTParams.of((1, 2, 3), QPP)

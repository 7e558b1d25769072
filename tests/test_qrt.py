"""Planar QRT dynamics and the recurrence polynomials `eliminate` derives."""

import hashlib
import json

import pytest

from periodmaps.algebra import (
    MPoly, compose_parts, equal_up_to_scale, parse_poly, roots, roots_of_poly)
from periodmaps.biquad import GAMMAS, on_pencil, s_value
from periodmaps.catalog import apply_map, catalog_get, invariants_eval
from periodmaps.cli import main
from periodmaps.elim import default_transitions, derive
from periodmaps.errors import MissingParameterError, PeriodmapsError

QP = (1, 2, 0, 3, 1, 2)
QPP = (0, 1, 1, 0, 2, 1)
PARAMS = {"qp": QP, "qpp": QPP}


def _map():
    return catalog_get("qrt", params=PARAMS)


def _recurrence(n, params=PARAMS):
    """The one factor `eliminate --map qrt` derives, in (x, X)."""
    ts = default_transitions("qrt", n, params)
    got = derive("qrt", n, transitions=ts, params=params)
    assert len(got) == 1
    return got[0].with_vars(("x", "X")).primitive()


def test_invariant_conserved_along_numeric_orbit():
    m = _map()
    pt = (0.7, -0.4)
    h0, = invariants_eval(m, pt)
    for _ in range(6):
        pt = apply_map(m, pt)
        assert abs(invariants_eval(m, pt)[0] - h0) < 1e-9


def test_reduction_to_biquadratic_is_consistent_with_the_orbit():
    # on a level set h, consecutive x-coordinates satisfy the reduced
    # one-dimensional correspondence
    m = _map()
    pt = (0.7, -0.4)
    h, = invariants_eval(m, pt)
    q = tuple(a + h * b for a, b in zip(QP, QPP))
    xs = [pt[0]]
    for _ in range(5):
        pt = apply_map(m, pt)
        xs.append(pt[0])
    for k in range(len(xs) - 1):
        assert abs(s_value(q, xs[k + 1], xs[k])) < 1e-7


def _closes(m, pt, n, tol):
    """Does the qrt orbit of pt return after n steps, within tol?"""
    start = pt
    try:
        for _ in range(n):
            pt = apply_map(m, pt)
    except PeriodmapsError:
        return None
    return all(abs(u - v) < tol for u, v in zip(pt, start))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gamma_in_h_roots_give_periodic_level_sets(n):
    m = _map()
    H = m.invariants[0]
    g = on_pencil(GAMMAS[n], QP, QPP)
    dense = [c.constant_term() for c in g.as_univariate("h")]
    hs = roots([complex(c) for c in reversed(dense)], tol=1e-9)
    assert hs, "the pencil polynomial must have roots"
    x0 = 0.23 + 0.19j
    hit = 0
    for h in hs:
        q = [complex(a) + h * b for a, b in zip(QP, QPP)]
        assert abs(GAMMAS[n].eval(q)) < 1e-6 * (1 + abs(h)) ** 6
        # the points (x0, y) of the level set H = h: num_H - h den_H = 0
        num = [c.eval([x0]) for c in H.num.as_univariate("y")]
        den = [c.eval([x0]) for c in H.den.as_univariate("y")]
        num += [0] * (3 - len(num))
        den += [0] * (3 - len(den))
        co = [num[k] - h * den[k] for k in range(3)]
        if abs(co[2]) < 1e-12:
            continue
        if any(_closes(m, (x0, y0), n, 1e-6)
               for y0 in roots(co[::-1], tol=1e-8)):
            hit += 1
    assert hit >= 1


def _in_x_X(p: MPoly) -> MPoly:
    """p(x, y) with y renamed X."""
    return MPoly(("x", "X"), p.with_vars(("x", "y")).terms)


def test_recurrence_matches_direct_rational_arithmetic():
    # independent reconstruction, with no resultant: put the generating
    # polynomial on the pencil q' + h q'' and substitute h = H(x, X)
    F = _recurrence(3)
    H = _map().invariants[0]
    gamma = parse_poly("a*f - b*e - 3*c^2 + c*d", ("a", "b", "c", "d", "e", "f"))
    combo, _ = compose_parts(on_pencil(gamma, QP, QPP),
                             {"h": (_in_x_X(H.num), _in_x_X(H.den))})
    assert equal_up_to_scale(combo, F)


@pytest.mark.parametrize("n", [3, 4])
def test_recurrence_roots_lie_on_periodic_level_sets(n):
    # every root X of F(x0, X) = 0 puts (x0, X) on a level set whose
    # orbits close up after n steps
    m = _map()
    F = _recurrence(n)
    H = m.invariants[0]
    g = on_pencil(GAMMAS[n], QP, QPP)
    scale = 1 + float(g.max_abs_coeff())
    closed = tried = 0
    for x0 in (0.41, -0.77 + 0.3j, 1.9):
        for X in roots_of_poly(F, "X", {"x": complex(x0)}, tol=1e-8):
            h = H.eval([complex(x0), X])
            assert abs(g.eval([h])) < 1e-5 * scale * (1 + abs(h)) ** g.degree("h")
            verdict = _closes(m, (complex(x0), X), n, 1e-5)
            if verdict is None:
                continue
            tried += 1
            closed += verdict
    assert tried >= 3 and closed >= tried // 2


# sha256 of str(F) at the two parameter sets of the benchmark campaign, F in
# (x, X) with a positive leading term, as the per-term clearing loop
# sum_k c_k N^k D^(m-k) of gamma^(n)(q' + H q'') wrote it; the factor
# `eliminate` derives prints the same text
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
def test_recurrence_text_is_pinned(qp, qpp, n, capsys):
    argv = ["eliminate", "--map", "qrt", "--period", str(n),
            "--qp", ",".join(map(str, qp)), "--qpp", ",".join(map(str, qpp))]
    assert main(argv) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["pass"] for v in verdicts] == [True]
    F = parse_poly(verdicts[0]["F"], ("x", "X")).primitive()
    got = hashlib.sha256(str(F).encode()).hexdigest()
    assert got == RECURRENCE_SHA256[(qp, qpp)][n]


def test_qrt_params_validate_their_shape():
    with pytest.raises(MissingParameterError, match="six rational"):
        catalog_get("qrt", qp=(1, 2, 3), qpp=QPP)

import math

import mpmath as mp
import numpy as np
import pytest

from vnag import NumericalError, bessel_j1, bessel_y1
from vnag.bessel import _SWITCH

mp.mp.dps = 30


def test_j1_at_zero():
    assert bessel_j1(0.0) == 0.0


def test_j1_reference_value():
    # power-series oracle: sum (-1)^m / (m! (m+1)!) (x/2)^(2m+1) at x = 1
    assert abs(bessel_j1(1.0) - 0.4400505857449335) <= 1e-10


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j1(-0.5)
    with pytest.raises(ValueError):
        bessel_y1(0.0)
    with pytest.raises(ValueError):
        bessel_y1(-1.0)


def test_tiny_arguments():
    # below 1e-10 the leading terms x/2 and -2/(pi x) stand in for the
    # series, whose x * x underflows; checked on both sides of the seam
    for x in (1e-300, 1e-200, 9e-11, 1.1e-10):
        oj = float(mp.besselj(1, x))
        oy = float(mp.bessely(1, x))
        assert abs(bessel_j1(x) - oj) <= 4e-16 * abs(oj)
        assert abs(bessel_y1(x) - oy) <= 4e-16 * abs(oy)
    with pytest.raises(NumericalError):
        bessel_y1(5e-324)  # |Y1| ~ 1.3e323 overflows


def test_against_high_precision_oracle():
    # coarse version of the acceptance sweep
    for x in np.logspace(-3, 3, 120):
        x = float(x)
        oj = float(mp.besselj(1, x))
        oy = float(mp.bessely(1, x))
        assert abs(bessel_j1(x) - oj) <= 1e-10 * abs(oj)
        assert abs(bessel_y1(x) - oy) <= 1e-10 * abs(oy)


def test_regime_overlap():
    # neighbouring regions agree at every seam: series against the first
    # Taylor anchor at 4.5, adjacent anchors at each half-integer, and the
    # last anchor against the Hankel expansion at the switch
    from vnag.bessel import _ANCHORS, _SERIES_MAX, _asymptotic, _series, _taylor
    assert _SERIES_MAX == 4.5 and _SWITCH == 20.0
    assert list(_ANCHORS) == list(range(5, 21))
    for a, b in zip(_series(4.5), _taylor(4.5, 5)):
        assert abs(a - b) <= 1e-12
    for x0 in range(5, 20):
        for a, b in zip(_taylor(x0 + 0.5, x0), _taylor(x0 + 0.5, x0 + 1)):
            assert abs(a - b) <= 1e-12
    for a, b in zip(_asymptotic(20.0), _taylor(20.0, 20)):
        assert abs(a - b) <= 1e-12


def test_dense_absolute_accuracy():
    # the root search needs absolute accuracy next to the zeros, which the
    # relative log grid of criterion 03 never samples
    zeros = [float(mp.besseljzero(1, k)) for k in range(1, 8)] + \
            [float(mp.besselyzero(1, k)) for k in range(1, 9)]
    assert max(zeros) < 25.0
    xs = list(np.linspace(0.01, 25.0, 2500)) + zeros + \
        [z + d for z in zeros for d in (-1e-6, 1e-6)]
    for x in xs:
        x = float(x)
        oj = float(mp.besselj(1, x))
        oy = float(mp.bessely(1, x))
        tol = 1e-14 * max(1.0, abs(oy))
        assert abs(bessel_j1(x) - oj) <= tol, x
        assert abs(bessel_y1(x) - oy) <= tol, x


def test_no_global_decimal_context_mutation():
    from decimal import getcontext
    before = getcontext().prec
    bessel_j1(5.0)
    bessel_y1(5.0)
    assert getcontext().prec == before


def test_leading_asymptotic_envelope():
    # leading-order forms hold up to an O(1/x) correction
    for x in (50.0, 80.0, 200.0, 1000.0):
        amp = math.sqrt(2.0 / (math.pi * x))
        lead_j = amp * math.cos(x - 0.75 * math.pi)
        lead_y = amp * math.sin(x - 0.75 * math.pi)
        assert abs(bessel_j1(x) - lead_j) <= 0.5 * amp / x
        assert abs(bessel_y1(x) - lead_y) <= 0.5 * amp / x
    # absolute form of the same check at x = 50
    assert abs(bessel_y1(50.0)
               - math.sqrt(2 / (math.pi * 50)) * math.sin(50 - 0.75 * math.pi)) <= 2e-2


def _single(x, which):
    """J1 (which = 0) or Y1 (which = 1) by its own region dispatch, as
    bessel_j1 and bessel_y1 evaluated them before they became the halves of
    the pair evaluator."""
    from vnag.bessel import (_ANCHORS, _J_COEFFS, _SERIES_MAX, _TINY, _Y_COEFFS,
                             _asymptotic, _series)
    if x < _TINY:
        return (0.5 * x, -(2.0 / math.pi) / x)[which]
    if x < _SERIES_MAX:
        return _series(x)[which]
    if x < _SWITCH:  # one Horner chain per function, the reference for `_taylor`'s pair
        x0 = int(x + 0.5)
        acc = 0.0
        for a in (_J_COEFFS, _Y_COEFFS)[which][x0 - _ANCHORS[0]]:
            acc = acc * (x - x0) + a
        return acc
    return _asymptotic(x)[which]


def test_pair_evaluator_is_bit_identical():
    # at each region seam (and one ulp either side) and at random points
    from vnag.bessel import _ANCHORS, _SERIES_MAX, _TINY, _j1_y1
    seams = [_TINY, _SERIES_MAX, *(x0 + 0.5 for x0 in _ANCHORS[:-1]), _SWITCH]
    xs = [q for s in seams for q in (math.nextafter(s, 0.0), s, math.nextafter(s, math.inf))]
    rng = np.random.default_rng(20211)
    xs += [1e-300, 5e-300, 1e-20, 3.0, 12.0, 1e3, 1e8]
    xs += np.exp(rng.uniform(math.log(1e-12), math.log(1e3), 3000)).tolist()
    xs += rng.uniform(0.0, 25.0, 2000).tolist()
    for x in xs:
        pair = _j1_y1(x)
        assert pair == (bessel_j1(x), bessel_y1(x)) == (_single(x, 0), _single(x, 1)), x
        assert all(type(v) is float for v in pair)
    with pytest.raises(ValueError):
        _j1_y1(0.0)
    with pytest.raises(NumericalError):
        _j1_y1(5e-324)


def _old_series(x):
    """The reference for `_series`: the power series with k (k + 1) and the
    digamma sum computed afresh on every term."""
    from vnag.bessel import _EULER_GAMMA
    half = 0.5 * x
    q = -half * half
    term = half
    g = 1.0 - 2.0 * _EULER_GAMMA
    j, s = term, term * g
    for k in range(1, 40):
        term *= q / (k * (k + 1))
        g += 1.0 / k + 1.0 / (k + 1)
        j += term
        s += term * g
        if abs(term) < 1e-17 * half:
            break
    return j, (2.0 * math.log(half) * j - 2.0 / x - s) / math.pi


def _old_anchor_coeffs():
    """The reference for `_J_COEFFS` and `_Y_COEFFS`: the Taylor anchors
    started from `_old_series` and its term-by-term derivative at x = 4."""
    from vnag.bessel import (_ANCHORS, _EULER_GAMMA, _STEP_TERMS, _TERMS, _taylor_coeffs,
                             _unit_step)
    x = _ANCHORS[0] - 1.0
    half = 0.5 * x
    q = -half * half
    term = half
    g = 1.0 - 2.0 * _EULER_GAMMA
    dj, ds = term, term * g
    for k in range(1, 40):
        term *= q / (k * (k + 1))
        g += 1.0 / k + 1.0 / (k + 1)
        dj += (2 * k + 1) * term
        ds += (2 * k + 1) * term * g
        if abs(term) < 1e-17 * half:
            break
    j, y = _old_series(x)
    dy = (2.0 * (j + math.log(half) * dj) / x + 2.0 / (x * x) - ds / x) / math.pi
    dj /= x
    j_coeffs, y_coeffs = [], []
    for x0 in range(_ANCHORS[0] - 1, _ANCHORS[-1] + 1):
        aj = _taylor_coeffs(float(x0), j, dj, _STEP_TERMS)
        ay = _taylor_coeffs(float(x0), y, dy, _STEP_TERMS)
        if x0 >= _ANCHORS[0]:
            j_coeffs.append(tuple(reversed(aj[:_TERMS])))
            y_coeffs.append(tuple(reversed(ay[:_TERMS])))
        j, dj = _unit_step(aj)
        y, dy = _unit_step(ay)
    return tuple(j_coeffs), tuple(y_coeffs)


def test_tabled_series_is_bit_identical():
    # the series summed from its table gives the per-term loop's bits at the
    # ends of its region (one ulp either side) and at 20,000 log-uniform points,
    # and the anchors built from it are unchanged
    from vnag.bessel import _J_COEFFS, _SERIES_MAX, _TINY, _Y_COEFFS, _series
    xs = [q for s in (_TINY, _SERIES_MAX) for q in (math.nextafter(s, 0.0), s,
                                                   math.nextafter(s, math.inf))]
    rng = np.random.default_rng(25)
    xs += np.exp(rng.uniform(math.log(_TINY), math.log(_SERIES_MAX), 20000)).tolist()
    for x in xs:  # float.hex also tells -0.0 from 0.0
        assert [v.hex() for v in _series(x)] == [v.hex() for v in _old_series(x)], x
    assert repr((_J_COEFFS, _Y_COEFFS)) == repr(_old_anchor_coeffs())

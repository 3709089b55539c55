"""Closed forms against extended-precision oracles over their whole range.

Each property draws its inputs with a fixed seed (``derandomize=True``)
and compares the double-precision result with an mpmath computation of
the same quantity, stating its bound as a relative error or in ulps.
The file starts no subprocess or thread.

    PYTHONPATH=src python -m pytest tests/test_precision.py -q
"""

import math

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.bounds import extremal_bell_numeric
from bellsim.network import _expected_max_attempts
from bellsim.states import BellAngles, MeasurementSetting, chsh_operator

# The ends of the fidelity range, where the multiplier of the window problem
# grows as 1/sqrt(F) or 1/(1 - F), and the middle.
_FIDELITIES = (0.0, 1e-300, 1e-30, 0.5, 1.0 - 1e-12, 1.0 - 1e-16, 1.0)
# |W| <= 2*sqrt(2), and one ulp there is 2**-51.
_WINDOW_ULP = 2.0**-51


def _mp_max_expectation(w, f: float):
    """max Tr(rho W) at overlap f with Phi+, by a 50-digit bisection of the secular equation.

    The pure optimum is v = sqrt(f)|t> + sqrt(1-f) sum_i x_i|e_i>, with e_i
    the eigenvectors of W on the complement of t (eigenvalues c_i),
    h_i = <e_i|W|t>, k = sqrt(f(1-f))|h| and
    x_i = (h_i/|h|) / (m + (1-f)(c_top - c_i)/k), where m in [0, 1] fixes
    |x| = 1; the top component takes up any norm the root leaves.
    """
    with mpmath.workdps(50):
        w = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in w.tolist()])
        r = 1 / mpmath.sqrt(2)
        target = mpmath.matrix([r, 0, 0, r])
        # Phi-, Psi+ and Psi-: the complement of the target, exactly.
        complement = mpmath.matrix([[r, 0, 0], [0, r, r], [0, r, -r], [-r, 0, 0]])
        c, rotation = mpmath.eigh(complement.H * w * complement)
        order = sorted(range(3), key=lambda i: c[i])
        basis = complement * rotation
        basis = mpmath.matrix([[basis[row, i] for i in order] for row in range(4)])
        c = [c[i] for i in order]
        h = basis.H * (w * target)
        norm_h = mpmath.sqrt(sum(abs(h[i]) ** 2 for i in range(3)))
        f = mpmath.mpf(f)
        k = mpmath.sqrt(f * (1 - f)) * norm_h
        x = [mpmath.mpc(0)] * 3
        if k > 0:
            unit = [h[i] / norm_h for i in range(3)]
            spread = [(1 - f) * (c[-1] - c[i]) / k for i in range(3)]
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            for _ in range(200):
                mid = (lo + hi) / 2
                if sum(abs(unit[i] / (mid + spread[i])) ** 2 for i in range(3)) > 1:
                    lo = mid
                else:
                    hi = mid
            x = [unit[i] / (hi + spread[i]) for i in range(3)]
        rest = mpmath.sqrt(max(mpmath.mpf(0), 1 - abs(x[0]) ** 2 - abs(x[1]) ** 2))
        x[2] = rest if x[2] == 0 else rest * x[2] / abs(x[2])
        v = mpmath.sqrt(f) * target + mpmath.sqrt(1 - f) * (basis * mpmath.matrix(x))
        return mpmath.re((v.H * w * v)[0])


_SETTINGS = st.builds(
    MeasurementSetting,
    st.floats(-3.0 * math.pi, 3.0 * math.pi),
    st.sampled_from((0.0, math.pi)),
)
_CANONICAL = vars(BellAngles.canonical())
_CUSTOM = vars(BellAngles.from_thetas(*(a * math.pi for a in (0.1, 0.4, 0.15, 0.9))))
_AZIMUTH_PI = vars(BellAngles.from_thetas(*(a * math.pi for a in (1.5, 0.4, -0.15, 0.9))))


class TestBellWindow:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(f=st.sampled_from(_FIDELITIES), a1=_SETTINGS, a2=_SETTINGS, b1=_SETTINGS, b2=_SETTINGS)
    @example(f=0.87, **_CANONICAL)
    @example(f=1e-300, **_CANONICAL)
    @example(f=0.87, **_CUSTOM)
    @example(f=1e-30, **_CUSTOM)
    @example(f=1.0 - 1e-16, **_CUSTOM)
    @example(f=0.87, **_AZIMUTH_PI)
    def test_window_within_16_ulps_of_extended_precision(self, f, a1, a2, b1, b2):
        angles = BellAngles(a1, a2, b1, b2)
        result = extremal_bell_numeric(f, angles)
        w = chsh_operator(angles)
        exact_max = _mp_max_expectation(w, f)
        exact_min = -_mp_max_expectation(-w, f)
        assert abs(result.bell_max - exact_max) <= 16 * _WINDOW_ULP
        assert abs(result.bell_min - exact_min) <= 16 * _WINDOW_ULP


def _mp_expected_max_attempts(n: int, p: float):
    """E[max of n geometric waits] by 120-digit inclusion-exclusion.

    E = sum_{k=1}^{n} (-1)^(k+1) C(n, k) / (1 - q^k), q = 1 - p, with
    1 - q^k = -expm1(k log1p(-p)); at n = 100 and p = 1e-300 the
    alternating sum cancels about 30 of its 120 digits.
    """
    with mpmath.workdps(120):
        p = mpmath.mpf(p)
        log_q = mpmath.log1p(-p)
        total = mpmath.mpf(0)
        for k in range(1, n + 1):
            total += (-1) ** (k + 1) * mpmath.binomial(n, k) / -mpmath.expm1(k * log_q)
        return total


class TestExpectedMaxAttempts:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(1, 100), exponent=st.floats(-300.0, 0.0))
    @example(n=3, exponent=-3.0)  # the worst point of an 84-point grid, on the direct series
    @example(n=100, exponent=-300.0)
    @example(n=100, exponent=0.0)
    @example(n=2, exponent=-6.0)
    @example(n=2, exponent=-0.5)  # small n at large p, where only the series is exact
    @example(n=59, exponent=-1.0)
    def test_relative_error_far_below_1e_12(self, n, exponent):
        p = 10.0**exponent
        exact = _mp_expected_max_attempts(n, p)
        got = _expected_max_attempts(n, p)
        assert abs((got - exact) / exact) <= 1e-13

"""Closed forms against extended-precision oracles over their whole range.

Each property draws its inputs with a fixed seed (``derandomize=True``)
and compares the double-precision result with an mpmath computation of
the same quantity, stating its bound as a relative error or in ulps.
The file starts no subprocess or thread.

    PYTHONPATH=src python -m pytest tests/test_precision.py -q
"""

import itertools
import math

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellsim.bounds import extremal_bell_numeric
from bellsim.loopholes import detection_efficiency, photon_survival
from bellsim.network import _LATENCY_TERMS, _expected_max_attempts
from bellsim.protocol import (
    SINGLE_PULSE,
    TWO_PULSE,
    DetectorParams,
    PulseSequence,
    SourceParams,
    recorded_outcome_distribution,
)
from bellsim.states import BellAngles, MeasurementSetting, chsh_operator

_MAX_FLOAT = 1.7976931348623157e308
# Half the smallest subnormal, the most one rounding below the normal range can move a result.
_HALF_SUBNORMAL = mpmath.mpf(2) ** -1075

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
_CANONICAL = BellAngles.canonical()._asdict()
_CUSTOM = BellAngles.from_thetas(*(a * math.pi for a in (0.1, 0.4, 0.15, 0.9)))._asdict()
_AZIMUTH_PI = BellAngles.from_thetas(*(a * math.pi for a in (1.5, 0.4, -0.15, 0.9)))._asdict()


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

    # Up to 2**62 links on the program's direct series (p >= 0.01 never takes its
    # Euler-Maclaurin branch), where n log(1 - q^t) needs log1p at tiny q^t.
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(n=st.integers(2, 2**62), p=st.floats(0.01, 0.999))
    @example(n=2**62, p=0.01)
    @example(n=2**62, p=0.999)
    @example(n=101, p=0.5)
    @example(n=10**6, p=0.1)
    @example(n=10**12, p=0.9)
    def test_large_n_against_direct_series(self, n, p):
        exact = _mp_direct_series(n, p)
        got = _expected_max_attempts(n, p)
        assert abs((got - exact) / exact) <= 1e-13

    # The whole direct-series branch, down to the p below which the program takes
    # the Euler-Maclaurin form: about 6.2e-4 at n = 2 and 6.8e-4 at n = 100.
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(2, 100), p=st.floats(-3.25, 0.0).map(lambda e: 10.0**e))
    @example(n=10, p=0.0008205453035402532)  # where a series that drops its tail is 67 ulps off
    @example(n=2, p=0.0006207354131280454)  # the first p of the branch
    @example(n=100, p=0.0006803893131118146)
    @example(n=59, p=1e-3)
    def test_series_branch_within_4_ulps(self, n, p):
        assume(p == 1.0 or -math.log1p(-p) * _LATENCY_TERMS >= math.log(n) + 40.0)
        exact = _mp_expected_max_attempts(n, p)
        got = _expected_max_attempts(n, p)
        assert abs(got - exact) <= 4 * math.ulp(float(exact))


def _mp_direct_series(n: int, p: float):
    """E[max of n geometric waits] = sum_{t>=0} 1 - (1 - q^t)^n at 40 digits.

    The leading terms with n q^t >= 40 are each within e^-40 of 1 and are
    counted as 1.  The next ones are summed as -expm1(n log1p(-q^t)) until
    n q^t < 1; from there, t >= T, the rest of the series is expanded
    binomially, sum_k (-1)^(k+1) C(n, k) q^(kT) / (1 - q^k), whose terms
    fall like (n q^T)^k / k!.
    """
    with mpmath.workdps(40):
        n, q = mpmath.mpf(n), 1 - mpmath.mpf(p)
        ones = max(0, int(mpmath.floor(mpmath.log(n / 40) / -mpmath.log(q))) + 1)
        total, x = mpmath.mpf(ones), q**ones
        while n * x >= 1:
            total += -mpmath.expm1(n * mpmath.log1p(-x)) if x < 1 else 1
            x *= q
        k, power = 1, n * x  # power = C(n, k) x^k
        while abs(power) > 1e-35 * total:
            total += power / (1 - q**k)
            power *= -(n - k) * x / (k + 1)
            k += 1
        return total


def _mp_rotation(setting: MeasurementSetting, extra_phase=0):
    """U(theta, phi + extra_phase) at 50 digits, from the same definition as ``rotation_matrix``."""
    c, s = mpmath.cos(mpmath.mpf(setting.theta) / 2), mpmath.sin(mpmath.mpf(setting.theta) / 2)
    e = mpmath.expj(mpmath.mpf(setting.phi) + extra_phase)
    return mpmath.matrix([[c, -s / e], [s * e, c]])


def _mp_recorded_distribution(source, pulse, photon, det):
    """Recorded (atom label, PMT) distribution of one attempt at 50 digits, or None if nothing records.

    Built from the model's definition, not from the program's closed form:
    the emitted pair p |Phi+><Phi+| + (1 - p) I/4 is measured on the photon,
    each conditional atom state is rotated as a matrix and read out, and in
    single-pulse mode the bright probability c0 + c1 cos(wt) + c2 sin(wt)
    (read off at wt = 0, pi/2, pi) is integrated over the window term by
    term.  True heralds weigh p_true times the clicking tube's efficiency;
    a dark click, (1 - p_true) times the dark rate, lands on either tube
    and reads out the ground state.
    """
    with mpmath.workdps(50):
        r = 1 / mpmath.sqrt(2)
        ket = mpmath.matrix([r, 0, 0, r])
        p = mpmath.mpf(source.werner_p)
        pair = p * (ket * ket.H) + (1 - p) * mpmath.eye(4) / 4  # index 2 * atom + photon
        u_photon = _mp_rotation(photon)
        conditional = []
        for o in range(2):
            atom = mpmath.matrix(2, 2)
            for s, t, q, v in itertools.product(range(2), repeat=4):
                atom[s, t] += u_photon[o, q] * pair[2 * s + q, 2 * t + v] * mpmath.conj(u_photon[o, v])
            conditional.append(atom)

        def bright(atom, phase=0):
            setting = pulse.effective_setting if pulse.mode == TWO_PULSE else pulse.nominal_setting
            u = _mp_rotation(setting, phase)
            return mpmath.re((u * atom * u.H)[0, 0])

        def mean_bright(atom):
            if pulse.mode == TWO_PULSE:
                return bright(atom)
            b0, b1, b2 = (bright(atom, x) for x in (0, mpmath.pi / 2, mpmath.pi))
            c0, c1, c2 = (b0 + b2) / 2, (b0 - b2) / 2, b1 - (b0 + b2) / 2
            wt = 2 * mpmath.pi * mpmath.mpf(pulse.microwave_frequency)
            wt *= mpmath.mpf(source.excitation_window)
            return c0 + c1 * mpmath.sin(wt) / wt + c2 * (1 - mpmath.cos(wt)) / wt

        bright_error, dark_error = mpmath.mpf(det.atom_bright_error), mpmath.mpf(det.atom_dark_error)

        def labels(p_bright):
            return (
                p_bright * (1 - bright_error) + (1 - p_bright) * dark_error,
                p_bright * bright_error + (1 - p_bright) * (1 - dark_error),
            )

        p_true = mpmath.fprod(
            mpmath.mpf(x)
            for x in (
                source.excitation_probability,
                source.collection_efficiency,
                source.detector_quantum_efficiency,
            )
        )
        p_dark = (1 - p_true) * mpmath.mpf(det.dark_event_probability)
        efficiencies = (mpmath.mpf(det.pmt_efficiency_1), mpmath.mpf(det.pmt_efficiency_2))
        weights = [[mpmath.mpf(0)] * 2 for _ in range(2)]  # [atom label][PMT]
        for o, atom in enumerate(conditional):
            probability = mpmath.re(atom[0, 0] + atom[1, 1])
            pmt = o ^ int(det.pmt_role_swapped)
            for label, x in enumerate(labels(mean_bright(atom / probability))):
                weights[label][pmt] += p_true * efficiencies[pmt] * probability * x
        for label, x in enumerate(labels(mean_bright(mpmath.matrix([[1, 0], [0, 0]])))):
            for pmt in range(2):
                weights[label][pmt] += p_dark * x / 2
        total = sum(weights[0]) + sum(weights[1])
        if total == 0:
            return None
        return [weights[label][pmt] / total for label in range(2) for pmt in range(2)]


# Efficiencies and dark rates from zero through the subnormals to 1.
_RATES = (0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e-3, 0.5, 1.0)
_ANGLES = st.floats(-3.0 * math.pi, 3.0 * math.pi)
# Each recorded probability lies in [0, 1], and one ulp of 1 is 2**-52.
_PROBABILITY_ULP = 2.0**-52


class TestRecordedOutcomeDistribution:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        werner_p=st.floats(0.0, 1.0),
        excitation=st.sampled_from((0.0, 0.1, 1.0)),
        mode=st.sampled_from((TWO_PULSE, SINGLE_PULSE)),
        theta_atom=_ANGLES,
        rotation_phase=_ANGLES,
        transfer_phase=_ANGLES,
        theta_photon=_ANGLES,
        phi_photon=_ANGLES,
        window_exponent=st.floats(-13.0, -3.0),
        frequency_exponent=st.floats(3.0, 12.0),
        efficiency_1=st.sampled_from(_RATES),
        efficiency_2=st.sampled_from(_RATES),
        bright_error=st.floats(0.0, 0.3),
        dark_error=st.floats(0.0, 0.3),
        dark_rate=st.sampled_from(_RATES),
        swapped=st.booleans(),
    )
    # No emission and a subnormal dark rate: the dark clicks alone record.
    @example(werner_p=1.0, excitation=0.0, mode=TWO_PULSE, theta_atom=0.5, rotation_phase=0.0,
             transfer_phase=0.0, theta_photon=0.3, phi_photon=0.0, window_exponent=-7.3,
             frequency_exponent=10.16, efficiency_1=1.0, efficiency_2=1.0, bright_error=0.0,
             dark_error=0.3, dark_rate=5e-324, swapped=True)
    # Dark tubes and a subnormal dark rate: the dark clicks alone record, at full precision.
    @example(werner_p=0.3, excitation=0.1, mode=SINGLE_PULSE, theta_atom=2.0, rotation_phase=1.0,
             transfer_phase=0.0, theta_photon=1.1, phi_photon=0.4, window_exponent=-8.3,
             frequency_exponent=10.16, efficiency_1=0.0, efficiency_2=0.0, bright_error=0.3,
             dark_error=0.025, dark_rate=1e-320, swapped=False)
    # Subnormal efficiencies against a subnormal dark rate, in comparable shares.
    @example(werner_p=0.9, excitation=0.1, mode=TWO_PULSE, theta_atom=1.0, rotation_phase=0.2,
             transfer_phase=0.1, theta_photon=0.7, phi_photon=0.0, window_exponent=-7.3,
             frequency_exponent=10.16, efficiency_1=5e-324, efficiency_2=5e-324,
             bright_error=0.025, dark_error=0.025, dark_rate=5e-324, swapped=True)
    def test_within_8_ulps_of_extended_precision(
        self, werner_p, excitation, mode, theta_atom, rotation_phase, transfer_phase,
        theta_photon, phi_photon, window_exponent, frequency_exponent, efficiency_1,
        efficiency_2, bright_error, dark_error, dark_rate, swapped,
    ):
        source = SourceParams(
            excitation_probability=excitation, werner_p=werner_p,
            excitation_window=10.0**window_exponent,
        )
        pulse = PulseSequence(
            mode, theta_atom, rotation_phase, transfer_phase, 10.0**frequency_exponent
        )
        photon = MeasurementSetting(theta_photon, phi_photon)
        det = DetectorParams(
            pmt_efficiency_1=efficiency_1, pmt_efficiency_2=efficiency_2,
            atom_bright_error=bright_error, atom_dark_error=dark_error,
            waveplate_angle=math.pi / 4 if swapped else 0.0, dark_event_probability=dark_rate,
        )
        exact = _mp_recorded_distribution(source, pulse, photon, det)
        if exact is None:
            with pytest.raises(ValueError, match="no outcome is ever recorded"):
                recorded_outcome_distribution(source, pulse, photon, det)
            return
        got = recorded_outcome_distribution(source, pulse, photon, det)
        for value, reference in zip(got, exact):
            assert abs(value - reference) <= 8 * _PROBABILITY_ULP


class TestLoopholeArithmetic:
    """The fiber and detection budgets over their schema ranges.

    Lengths and attenuations are any finite non-negative floats; couplings
    and stage efficiencies lie in [0, 1].
    """

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        fiber_length=st.floats(0.0, _MAX_FLOAT),
        attenuation=st.floats(0.0, _MAX_FLOAT),
        coupling=st.floats(0.0, 1.0),
    )
    @example(fiber_length=1e5, attenuation=0.2, coupling=1.0)  # the swap default, x = -2
    @example(fiber_length=3e5, attenuation=10.0, coupling=0.5)  # x = -300, still normal
    @example(fiber_length=3.2e5, attenuation=10.0, coupling=0.5)  # x = -320, a subnormal result
    @example(fiber_length=1e10, attenuation=_MAX_FLOAT, coupling=1.0)  # the dB product overflows
    @example(fiber_length=1e-320, attenuation=_MAX_FLOAT, coupling=1.0)  # a subnormal length
    def test_photon_survival_within_its_rounding_bound(self, fiber_length, attenuation, coupling):
        # coupling * 10**x, x = -attenuation * fiber_length / 10**4: the three
        # roundings of x move it by up to 3 ulps, which 10**x turns into
        # |x| ln 10 ulps of the result; pow and the product add about 2 more.
        # The worst of 20000 scratch configs was 2.3 units of
        # 2**-53 * (1 + |x| ln 10).  Below the normal range a rounding moves
        # the result by up to half a subnormal step, so one whole step is allowed.
        got = photon_survival(fiber_length, attenuation, coupling)
        with mpmath.workdps(50):
            x = -mpmath.mpf(attenuation) * mpmath.mpf(fiber_length) / 10**4
            # 10**-400 is far below a subnormal step; a larger |x| only slows mpmath
            exact = mpmath.mpf(coupling) * mpmath.power(10, max(x, -400))
            bound = 4 * 2.0**-53 * (1 + abs(x) * mpmath.log(10)) * exact + 2 * _HALF_SUBNORMAL
            assert abs(mpmath.mpf(got) - exact) <= bound

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=8))
    @example([0.10, 0.01, 0.20])  # the loopholes default
    @example([])
    @example([1e-200, 1e-100, 0.3])  # normal, near the bottom of the range
    @example([1e-300, 1e-20, 0.3, 0.7])  # every product is subnormal
    @example([5e-324, 0.5, 1.0])
    def test_detection_efficiency_within_k_minus_1_roundings(self, efficiencies):
        # k factors take k - 1 rounded products, each within 2**-53 relative
        # while the partial product is normal; the factors are at most 1, so a
        # normal result has only normal partial products, and below the normal
        # range each product adds at most half a subnormal step.  The worst of
        # 20000 scratch configs with k <= 8 was 2.25 * 2**-53.
        got = detection_efficiency(efficiencies)
        roundings = max(len(efficiencies) - 1, 0)
        with mpmath.workprec(53 * 8 + 16):  # exact for up to 8 factors
            exact = mpmath.fprod([mpmath.mpf(x) for x in efficiencies])
            bound = roundings * (2.0**-53 * exact + _HALF_SUBNORMAL)
            assert abs(mpmath.mpf(got) - exact) <= bound

"""Marginal kernels: array tail integrals and in-place inverse transforms
against scalar references written out from the closed forms."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sc

from heavytails import distributions
from heavytails.distributions import (
    DiscreteAtoms,
    Exponential,
    GeometricAtomMixture,
    IntegratedTail,
    Lognormal,
    Pareto,
    ShiftedBy,
    Weibull,
)
from heavytails.errors import InvalidInput


# Scalar references: one window at a time, with math's libm.

def ref_pareto(d, a, b):
    s, al = d.scale, d.alpha
    lo, hi = max(a, s), b
    out = max(0.0, min(b, s) - a)
    if hi > lo:
        if math.isinf(hi):
            if al <= 1:
                return math.inf
            out += s**al * lo ** (1.0 - al) / (al - 1.0)
        elif al == 1.0:
            out += s * math.log(hi / lo)
        else:
            out += s**al * (lo ** (1.0 - al) - hi ** (1.0 - al)) / (al - 1.0)
    return out


def ref_weibull(d, a, b):
    out = max(0.0, min(b, 0.0) - a)
    lo = max(a, 0.0)
    if b > lo:
        c, lam = d.shape, d.scale
        k = 1.0 / c
        u_lo = (lo / lam) ** c
        if math.isinf(b):
            reg = float(sc.gammaincc(k, u_lo))
        elif u_lo >= k:
            # deep windows: the lower incomplete gammas both round to 1
            reg = float(sc.gammaincc(k, u_lo) - sc.gammaincc(k, (b / lam) ** c))
        else:
            reg = float(sc.gammainc(k, (b / lam) ** c) - sc.gammainc(k, u_lo))
        out += lam * k * math.gamma(k) * reg
    return out


def ref_lognormal(d, a, b):
    def upper(x):
        if x <= 0:
            return d.mean() - x
        z = (math.log(x) - d.mu) / d.sigma
        return d.mean() * sc.ndtr(d.sigma - z) - x * sc.ndtr(-z)
    return upper(a) if math.isinf(b) else upper(a) - upper(b)


def ref_exponential(d, a, b):
    out = max(0.0, min(b, 0.0) - a)
    lo = max(a, 0.0)
    if b > lo:
        hi_term = 0.0 if math.isinf(b) else math.exp(-d.rate * b)
        out += (math.exp(-d.rate * lo) - hi_term) / d.rate
    return out


def ref_atoms(d, a, b):
    # the per-window step integral the array kernel replaced
    locs, _, _, suffix = d._table
    if math.isinf(b):
        if math.isinf(d.mean()):
            return math.inf
        b = max(a, float(locs[-1]))
    if b <= a:
        return 0.0
    pts = np.concatenate(([a], locs[(locs > a) & (locs < b)], [b]))
    idx = np.searchsorted(locs, pts[:-1], side="right") - 1
    heights = np.where(idx >= 0, suffix[np.maximum(idx, 0)], 1.0)
    return float(np.sum(np.diff(pts) * heights))


def ref_shifted(ref, base, shift):
    return lambda d, a, b: ref(base, a - shift, b - shift)


def param_id(v):
    """A test id that is the same in every run: a function's name, else the
    first 40 characters of the repr (a function's repr holds its address)."""
    return getattr(v, "__name__", None) or repr(v)[:40]


def windows(rng, start, n=400):
    """Random windows: across the support start, deep and narrow, zero
    width, and unbounded.

    Deep windows are at least 1e-5 of their depth wide: a closed form that
    subtracts two nearly equal terms turns a one-ulp difference into about
    depth / width ulps, in the reference as much as in the kernel.
    """
    a = np.concatenate((
        start + rng.uniform(-3.0, 3.0, n),
        start + np.exp(rng.uniform(0.0, 12.0, n))))
    width = np.concatenate((
        np.exp(rng.uniform(-8.0, 6.0, n)),
        np.abs(a[n:]) * np.exp(rng.uniform(-11.5, 2.0, n))))
    b = a + width
    b[::7] = a[::7]
    b[3::11] = np.inf
    return a, b


DENSE = DiscreteAtoms(tuple((k / 10, 0.005) for k in range(1, 201)))

CLOSED = [
    (Pareto(1.5, 1.0), ref_pareto, 1.0),
    (Pareto(0.7, 2.0), ref_pareto, 2.0),
    (Pareto(1.0, 1.0), ref_pareto, 1.0),
    (Pareto(3.0, 0.5), ref_pareto, 0.5),
    (Weibull(0.5, 1.0), ref_weibull, 0.0),
    (Weibull(0.3, 2.0), ref_weibull, 0.0),
    (Lognormal(0.0, 1.0), ref_lognormal, 0.0),
    (Lognormal(1.0, 0.5), ref_lognormal, 0.0),
    (Exponential(1.0), ref_exponential, 0.0),
    (Exponential(3.0), ref_exponential, 0.0),
    (ShiftedBy(Pareto(1.5, 1.0), -0.5), ref_shifted(ref_pareto, Pareto(1.5, 1.0), -0.5), 0.5),
    (ShiftedBy(Weibull(0.5, 1.0), 2.0), ref_shifted(ref_weibull, Weibull(0.5, 1.0), 2.0), 2.0),
]

ATOMIC = [
    (DiscreteAtoms(((0.5, 0.4), (2.0, 0.3), (7.0, 0.2), (40.0, 0.1))), 0.5),
    (DENSE, 0.1),
    (GeometricAtomMixture(), -2.5),
    (ShiftedBy(DENSE, -1.0), -0.9),
]


def test_scale_must_be_finite():
    for family in (lambda s: Pareto(1.5, s), lambda s: Weibull(0.5, s)):
        with pytest.raises(InvalidInput):
            family(math.inf)


def test_building_a_lognormal_loads_scipy_special():
    # the module loads with the law, so a forked worker inherits it
    probe = ("import sys\n"
             "from heavytails.distributions import Lognormal, Pareto\n"
             "Pareto(1.5, 1.0)\n"
             "before = 'scipy.special' in sys.modules\n"
             "Lognormal(0, 1)\n"
             "print(before, 'scipy.special' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(
        Path(distributions.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "True"]


class TestTailIntegral:
    @pytest.mark.parametrize("d,ref,start", CLOSED, ids=param_id)
    def test_closed_forms_match_the_scalar_reference(self, d, ref, start):
        # numpy's vector pow, exp and log may differ from libm by an ulp, and
        # lo^(1-a) - hi^(1-a) amplifies that on deep, narrow windows
        a, b = windows(np.random.default_rng(7), start)
        got = d.tail_integral(a, b)
        want = np.array([ref(d, x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert got.shape == a.shape
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
        assert np.all(got[b == a] == 0.0)

    @pytest.mark.parametrize("d,start", ATOMIC, ids=param_id)
    def test_atom_tables_match_the_per_window_sum_bit_for_bit(self, d, start):
        a, b = windows(np.random.default_rng(8), start)
        base, shift = (d.base, d.shift) if isinstance(d, ShiftedBy) else (d, 0.0)
        want = [ref_atoms(base, x - shift, y - shift)
                for x, y in zip(a.tolist(), b.tolist())]
        assert d.tail_integral(a, b).tolist() == want

    @pytest.mark.parametrize("d,lo,hi,rtol", [
        (Pareto(1.5, 1.0), 1.6e5, 1.6e5 + 3e-4, 1e-14),
        (Pareto(2.5, 1.0), 1e3, 1e3 + 1e-6, 1e-14),
        (Pareto(1.0, 1.0), 1e8, 1e8 + 1.0, 1e-14),
        (Pareto(0.7, 2.0), 30.0, 31.0, 1e-14),
        (Exponential(1.0), 30.0, 30.0 + 1e-7, 1e-14),
        (Exponential(3.0), 0.5, 4.0, 1e-14),
        (Weibull(0.5, 1.0), 1e4, 1e4 + 1.0, 1e-8),
        (Weibull(0.3, 2.0), 50.0, 150.0, 1e-8),
        (Weibull(0.5, 1.0), 1e-8, 1e-6, 1e-8),
    ], ids=repr)
    def test_narrow_deep_windows_keep_full_precision(self, d, lo, hi, rtol):
        # the closed forms in 50-digit arithmetic; a difference of two nearly
        # equal powers, exponentials or lower incomplete gammas lost up to
        # every digit on these windows
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            a, b = mpmath.mpf(lo), mpmath.mpf(hi)
            if isinstance(d, Pareto):
                s, al = mpmath.mpf(d.scale), mpmath.mpf(d.alpha)
                want = (s * mpmath.log(b / a) if d.alpha == 1.0 else
                        s**al * (a ** (1 - al) - b ** (1 - al)) / (al - 1))
            elif isinstance(d, Exponential):
                r = mpmath.mpf(d.rate)
                want = (mpmath.exp(-r * a) - mpmath.exp(-r * b)) / r
            else:
                c, lam = mpmath.mpf(d.shape), mpmath.mpf(d.scale)
                want = lam / c * mpmath.gammainc(1 / c, (a / lam) ** c,
                                                 (b / lam) ** c)
            want = float(want)
        assert d.tail_integral(lo, hi) == pytest.approx(want, rel=rtol, abs=0)

    def test_unbounded_windows_keep_their_bytes(self):
        # hi = inf keeps the array expressions IntegratedTail relies on;
        # Weibull takes the upper incomplete gamma, which keeps every digit
        lo = np.array([2.0, 3.0, 40.0, 1e4])
        inf = np.full_like(lo, math.inf)
        old = {
            Pareto(1.5, 2.0): 2.0**1.5 * (lo**-0.5 - inf**-0.5) / 0.5,
            Weibull(0.5, 1.5): 1.5 * 2.0 * math.gamma(2.0) * (
                sc.gammaincc(2.0, (lo / 1.5) ** 0.5)),
            Exponential(2.0): (np.exp(-2.0 * lo) - np.exp(-2.0 * inf)) / 2.0,
        }
        for d, want in old.items():
            assert d.tail_integral(lo, math.inf).tolist() == want.tolist()

    @pytest.mark.parametrize("x", [400.0, 1e4])
    def test_weibull_unbounded_tail_keeps_full_precision(self, x):
        # shape 1/2: the integral of exp(-sqrt(t / lam)) from x to infinity
        # is 2 lam (1 + u) e^-u with u = sqrt(x / lam); at 1e4 it is 7.5e-42,
        # far below the rounding of 1 - gammainc
        lam = 1.0
        u = math.sqrt(x / lam)
        want = 2.0 * lam * (1.0 + u) * math.exp(-u)
        d = Weibull(0.5, lam)
        assert d.tail_integral(x, math.inf) == pytest.approx(want, rel=1e-13,
                                                             abs=0)
        assert IntegratedTail(d).tail(x) == pytest.approx(want, rel=1e-13,
                                                          abs=0)

    def test_scalar_call_is_the_zero_dimensional_case(self):
        for d, _, _ in CLOSED:
            got = d.tail_integral(3.0, 7.5)
            assert isinstance(got, float)
            assert got == d.tail_integral(np.array([3.0]), np.array([7.5]))[0]
        assert DENSE.tail_integral(0.0, math.inf) == pytest.approx(DENSE.mean())

    def test_bounds_broadcast(self):
        d = Pareto(2.0, 1.0)
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = d.tail_integral(a, math.inf)
        assert got.shape == (2, 2)
        np.testing.assert_allclose(got, 1.0 / a, rtol=1e-14)

    def test_rejects_reversed_bounds(self):
        for d in (Pareto(2.0, 1.0), DENSE):
            with pytest.raises(InvalidInput):
                d.tail_integral(np.array([1.0, 3.0]), np.array([2.0, 2.0]))
            with pytest.raises(InvalidInput):
                d.tail_integral(1.0, math.nan)

    def test_integrated_tail_matches_its_base(self):
        base = Pareto(2.5, 1.0)
        it = IntegratedTail(base)
        xs = np.array([-1.0, 0.5, 1.0, 2.0, 10.0, 300.0])
        want = [min(1.0, ref_pareto(base, x, math.inf)) for x in xs.tolist()]
        np.testing.assert_allclose(it.tail(xs), want, rtol=1e-12)
        a, b = np.array([0.0, 1.0, 2.0]), np.array([1.0, 4.0, 2.0])
        got = it.tail_integral(a, b)
        assert got.tolist() == [it.tail_integral(x, y)
                                for x, y in zip(a.tolist(), b.tolist())]
        assert got[2] == 0.0
        # from x >= 1 the tail is 1 / (1.5 x^1.5), its integral 1 / (0.75 sqrt x)
        assert got[1] == pytest.approx((1.0 - 0.5) / 0.75, rel=1e-8, abs=0)


# IntegratedTail over a base law, with the points where its tail kinks: the
# support start (where min(1, .) sets in), then the base law's kinks
INTEGRATED = [
    (Pareto(2.5, 1.0), [2.0 / 3.0, 1.0]),
    (Weibull(0.5, 1.0), [0.0]),
    (Lognormal(0.0, 1.0), [0.0]),
    (ShiftedBy(Pareto(2.5, 1.0), -3.0), [-2.0]),
    (DiscreteAtoms(((1.0, 0.5), (2.0, 0.3), (5.0, 0.2))), [1.0, 2.0, 5.0]),
]


class TestIntegratedTailWindows:
    @pytest.mark.parametrize("base,kinks", INTEGRATED,
                             ids=param_id)
    def test_windows_match_adaptive_quadrature(self, base, kinks):
        integrate = pytest.importorskip("scipy.integrate")
        it = IntegratedTail(base)
        kinks = kinks + [it.support()[0]]
        a = np.array([-2.0, 0.0, 0.3, 1.0, 5.0, 20.0, 0.5, 300.0])
        b = a + np.array([3.0, 1.0, 4.0, 10.0, 100.0, 1.0, 100.0, 100.0])

        def want(lo, hi):
            pts = sorted(k for k in kinks if lo < k < hi)
            return integrate.quad(
                lambda t: min(1.0, base.tail_integral(t, math.inf)), lo, hi,
                points=pts or None, epsabs=0.0, epsrel=1e-12, limit=500)[0]

        np.testing.assert_allclose(
            it.tail_integral(a, b),
            [want(lo, hi) for lo, hi in zip(a.tolist(), b.tolist())],
            rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("alpha,scale", [(2.5, 1.0), (3.5, 2.0),
                                             (2.2, 1.0)])
    def test_unbounded_windows_match_the_pareto_closed_form(self, alpha,
                                                            scale):
        # from c >= scale the tail is scale^a c^(1-a) / (a-1), and its
        # integral to infinity scale^a c^(2-a) / ((a-1)(a-2))
        it = IntegratedTail(Pareto(alpha, scale))
        c = scale * np.array([1.0, 1.5, 40.0, 1e4])
        want = scale**alpha * c ** (2.0 - alpha) / (
            (alpha - 1.0) * (alpha - 2.0))
        np.testing.assert_allclose(it.tail_integral(c, math.inf), want,
                                   rtol=1e-9, atol=0.0)

    def test_unbounded_window_on_an_exponential_fixed_point(self):
        # the exponential law integrates to itself: the integral of e^-t
        # from c to infinity is e^-c
        c = np.array([0.0, 0.5, 3.0, 30.0])
        np.testing.assert_allclose(
            IntegratedTail(Exponential(1.0)).tail_integral(c, math.inf),
            np.exp(-c), rtol=1e-9, atol=0.0)

    def test_a_pass_takes_one_base_call(self, monkeypatch):
        it = IntegratedTail(Pareto(2.5, 1.0))
        it.support()        # the support start bisects once, up front
        calls = []
        real = Pareto.tail_integral
        monkeypatch.setattr(
            Pareto, "tail_integral",
            lambda self, a, b: calls.append(1) or real(self, a, b))
        # windows of at most three pieces, as many as fit one pass
        xs = np.geomspace(0.5, 1e3, distributions._PASS_VALUES // (3 * 720))
        it.tail_integral(xs, np.append(xs[:-1] + 10.0, math.inf))
        assert len(calls) == 1


# Out-of-place inverse transforms, as they were written before the kernels
# overwrote their input.
OLD_PPF = [
    (Pareto(1.5, 2.0), lambda d, u: d.scale * (1.0 - u) ** (-1.0 / d.alpha)),
    (Pareto(1.0, 1.0), lambda d, u: d.scale * (1.0 - u) ** (-1.0 / d.alpha)),
    (Weibull(0.5, 1.5), lambda d, u: d.scale * (-np.log1p(-u)) ** (1.0 / d.shape)),
    (Lognormal(0.3, 1.2), lambda d, u: np.exp(d.mu + d.sigma * sc.ndtri(u))),
    (Exponential(2.0), lambda d, u: -np.log1p(-u) / d.rate),
    (GeometricAtomMixture(), lambda d, u: d._table[0][np.minimum(
        np.searchsorted(d._table[2], u, side="left"), len(d._table[0]) - 1)]),
    (ShiftedBy(Pareto(1.5, 1.0), -0.5),
     lambda d, u: d.base.scale * (1.0 - u) ** (-1.0 / d.base.alpha) + d.shift),
]


class TestInPlaceInverseTransform:
    @pytest.mark.parametrize("d,old", OLD_PPF, ids=param_id)
    def test_engine_hook_overwrites_the_uniforms_with_the_old_bits(self, d, old):
        u = np.random.default_rng(3).random(50_000)
        u[:3] = (0.0, 0.5, np.nextafter(1.0, 0.0))
        want = old(d, u.copy())
        got = d.ppf_from_uniform(u)
        assert got is u
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d,old", OLD_PPF, ids=param_id)
    def test_strided_column_is_overwritten_in_place(self, d, old):
        u = np.random.default_rng(4).random((1000, 3))
        want = old(d, u[:, 1].copy())
        d.ppf_from_uniform(u[:, 1])
        assert np.array_equal(u[:, 1], want)

    @pytest.mark.parametrize("d,old", OLD_PPF, ids=param_id)
    def test_quantile_and_sample_keep_the_caller_data(self, d, old):
        u = np.array([0.1, 0.5, 0.99])
        kept = u.copy()
        assert np.array_equal(d.quantile(u), old(d, kept.copy()))
        assert np.array_equal(u, kept)
        assert d.quantile(0.5) == float(old(d, np.array([0.5]))[0])
        draws = d.sample(np.random.default_rng(9), 1000)
        assert np.array_equal(draws,
                              old(d, np.random.default_rng(9).random(1000)))

    def test_integrated_tail_quantile_inverts_its_tail(self):
        it = IntegratedTail(Exponential(1.0))
        u = np.array([0.2, 0.7])
        x = it.quantile(u)
        np.testing.assert_allclose(1.0 - it.tail(x), u, rtol=1e-9)
        assert u.tolist() == [0.2, 0.7]

    @pytest.mark.parametrize("base", [Pareto(2.0, 1.0), Weibull(0.5, 1.0),
                                      ShiftedBy(Pareto(2.5, 1.0), -3.0)],
                             ids=repr)
    def test_integrated_tail_inverts_in_a_fixed_number_of_rounds(
            self, monkeypatch, base):
        it = IntegratedTail(base)
        lo = it.support()[0]        # its own search runs once, on first use
        calls = []
        inner = type(base).tail_integral

        def counted(self, a, b):
            calls.append(np.size(a))
            return inner(self, a, b)

        monkeypatch.setattr(type(base), "tail_integral", counted)
        batches = [np.array([0.5]), np.array([0.0, 1e-12, 0.5, 1.0 - 1e-12]),
                   np.random.default_rng(5).random(1000)]
        rounds = []
        for u in batches:
            calls.clear()
            x = it.ppf_from_uniform(u.copy())
            rounds.append(len(calls))
            assert calls == [len(u)] * len(calls)
            assert np.all(x >= lo)
            assert np.all(it.tail(x) <= 1.0 - u)
        assert rounds == [64, 64, 64]


@pytest.mark.parametrize("values", [
    np.array([5, 3, 3, 0, -2, 5, 7, 3], dtype=np.intp),
    np.array([2.5, -0.0, 1.0, 0.0, 2.5, -1.0, 0.0, -0.0, 1.0]),
    np.array([0.0, -0.0, 0.0]),
    np.array([], dtype=float),
    np.array([], dtype=np.intp),
])
def test_sorted_unique_is_np_unique(values):
    # values, dtype and signed zeros, and the inverse a caller forms by
    # searchsorted, as convolution._product_tails does
    got = distributions._sorted_unique(values)
    want, inverse = np.unique(values, return_inverse=True)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert np.signbit(got).tolist() == np.signbit(want).tolist()
    assert np.searchsorted(got, values).tolist() == inverse.tolist()


def test_quadrature_tables_keep_their_bytes():
    # the depth 36 and depth 12 graded rules, then the rule on [c, inf)
    tables = (distributions._graded_half_rule(36)
              + distributions._graded_half_rule(12) + distributions._far_rule())
    assert [len(a) for a in tables] == [360, 360, 120, 120, 720, 720, 720]
    assert hashlib.sha256(b"".join(a.tobytes() for a in tables)).hexdigest() \
        == "04c6c023a5691c037d27c258aaf49e01d61ae857f8c630165ec9d226e7c6d090"

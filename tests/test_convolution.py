"""Convolution oracle tests: exact atom algebra, brackets, frozen regression constants.

The regression constants (5/4 running minimum, 383/256 late minimum, margin 3/4)
were derived by scripts/mixture_ratio_margin.py in exact rational arithmetic,
independently of the library code under test.
"""

import gc
import math
import time
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from heavytails import cli
from heavytails import convolution as cv
from heavytails.diagnostics import fh_tail
from heavytails.distributions import (
    DiscreteAtoms,
    Exponential,
    GeometricAtomMixture,
    Lognormal,
    Pareto,
    ShiftedBy,
    Weibull,
)
from heavytails.errors import InvalidInput, ResourceLimit
from heavytails.rng import block_stream


def measure(pairs, inf_mass=0.0):
    items = sorted(pairs)
    return cv.LatticeMeasure(np.array([loc for loc, _ in items]),
                             np.array([m for _, m in items]),
                             inf_mass=inf_mass)


class TestLatticeMeasure:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInput):
            cv.LatticeMeasure(np.array([1.0, 0.5]), np.array([0.5, 0.5]))

    def test_rejects_negative_mass(self):
        with pytest.raises(InvalidInput):
            cv.LatticeMeasure(np.array([0.0]), np.array([-0.1]))

    def test_rejects_duplicate_locations(self):
        with pytest.raises(InvalidInput):
            cv.LatticeMeasure(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_tail_step_function(self):
        m = measure([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        assert m.tail(0.0) == 0.75
        np.testing.assert_array_equal(m.tail(np.array([0.0, 1.0, 2.0, -5.0])),
                                      [0.75, 0.25, 0.0, 1.0])
        assert m.tail(1.0) == 0.25
        assert m.tail(2.0) == 0.0
        assert m.tail(-5.0) == 1.0

    def test_inf_bucket_counts_in_every_tail(self):
        m = measure([(0.0, 0.5)], inf_mass=0.5)
        assert m.tail(1e12) == 0.5
        assert m.tail(-1.0) == 1.0

    def test_empty_measure_has_only_its_bucket(self):
        m = cv.LatticeMeasure(np.zeros(0), np.zeros(0), inf_mass=0.25)
        assert m.tail(3.0) == 0.25
        np.testing.assert_array_equal(m.tail(np.array([-1.0, 1.0])),
                                      [0.25, 0.25])


class TestConvolveAtoms:
    def test_delta_identity(self):
        m = measure([(0.5, 0.25), (2.0, 0.75)])
        delta = measure([(0.0, 1.0)])
        out = cv.convolve_atoms(delta, m)
        np.testing.assert_array_equal(out.locs, m.locs)
        np.testing.assert_allclose(out.masses, m.masses, rtol=0, atol=0)

    def test_bernoulli_square(self):
        b = measure([(0.0, 0.5), (1.0, 0.5)])
        out = cv.convolve_atoms(b, b)
        np.testing.assert_array_equal(out.locs, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(out.masses, [0.25, 0.5, 0.25])

    def test_positive_part_pairs_against_double_loop(self):
        # twelve atoms of the dyadic positive part, self-convolved; the tail at
        # x = 63 must equal the brute-force sum over pairs exceeding it
        atoms = [(2.0 ** (n + 1) - 1.0, 2.0 ** -(n + 1)) for n in range(12)]
        m = measure(atoms)
        out = cv.convolve_atoms(m, m)
        for x in (63.0, 62.0, 127.0, 10.0):
            brute = sum(ma * mb
                        for la, ma in atoms for lb, mb in atoms if la + lb > x)
            assert out.tail(x) == pytest.approx(brute, rel=1e-14)

    def test_mass_conservation_single(self):
        rng = block_stream(2024, (1 << 48) + 7)
        locs = np.sort(rng.uniform(-5, 5, size=400))
        masses = rng.uniform(0, 1, size=400)
        masses /= masses.sum()
        a = cv.LatticeMeasure(locs, masses)
        out = cv.convolve_atoms(a, a)
        assert abs(out.total() - a.total() ** 2) <= 1e-15

    def test_mass_conservation_64_folds(self):
        m = measure([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        out = cv.nfold_atoms(m, 64)
        assert abs(out.total() - 1.0) <= 1e-12
        # mean of the 64-fold sum is 64 by symmetry
        mean = float(np.sum(out.locs * out.masses))
        assert mean == pytest.approx(64.0, rel=1e-12)

    def test_overflow_bucket_algebra(self):
        a = measure([(0.0, 0.5)], inf_mass=0.5)
        b = measure([(1.0, 0.75)], inf_mass=0.25)
        out = cv.convolve_atoms(a, b)
        # bucket mass: 0.5*(0.75+0.25) + 0.25*0.5
        assert out.inf_mass == pytest.approx(0.625)
        assert out.total() == pytest.approx(1.0)

    def test_atom_cap_raises(self):
        locs = np.arange(3000, dtype=float)
        masses = np.full(3000, 1.0 / 3000)
        big = cv.LatticeMeasure(locs, masses)
        with pytest.raises(ResourceLimit):
            cv.convolve_atoms(big, big)

    def test_merge_tolerance(self):
        a = measure([(0.0, 0.5), (1.0, 0.5)])
        b = measure([(0.0, 0.5), (1.0 + 5e-13, 0.5)])
        out = cv.convolve_atoms(a, b)
        # 1.0 and 1.0+5e-13 merge into one atom
        assert len(out.locs) == 3
        assert out.masses[1] == pytest.approx(0.5)


@st.composite
def small_measures(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    locs = draw(st.lists(st.floats(min_value=-10, max_value=10,
                                   allow_nan=False, allow_infinity=False),
                         min_size=n, max_size=n, unique=True))
    masses = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                           min_size=n, max_size=n))
    total = sum(masses)
    return measure([(l, m / total) for l, m in zip(locs, masses)])


class TestConvolveProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=small_measures(), b=small_measures())
    def test_commutative(self, a, b):
        ab = cv.convolve_atoms(a, b)
        ba = cv.convolve_atoms(b, a)
        np.testing.assert_allclose(ab.locs, ba.locs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ab.masses, ba.masses, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(a=small_measures(), b=small_measures(), c=small_measures())
    def test_associative_tails(self, a, b, c):
        # association order can flip a merge decision for atoms spaced within
        # a float rounding of the tolerance, moving an atom by ~1e-12; so the
        # comparison stays away from the atoms themselves
        left = cv.convolve_atoms(cv.convolve_atoms(a, b), c)
        right = cv.convolve_atoms(a, cv.convolve_atoms(b, c))
        probes = np.linspace(-30.0, 30.0, 13)
        all_locs = np.concatenate((left.locs, right.locs))
        if len(all_locs):
            dist = np.min(np.abs(probes[:, None] - all_locs[None, :]), axis=1)
            probes = probes[dist > 1e-9]
        np.testing.assert_allclose(left.tail(probes), right.tail(probes),
                                   atol=1e-11)
        assert abs(left.total() - right.total()) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(a=small_measures(), b=small_measures())
    def test_conservation_property(self, a, b):
        out = cv.convolve_atoms(a, b)
        assert abs(out.total() - a.total() * b.total()) <= 1e-14


def twofold_ratios(d, xs):
    """(two-fold tails, ratios) of an atomic law at the probes xs; the
    bracket of an atomic law has zero width."""
    lower, upper = cv.nfold_tail_bracket(d, 2, xs)
    np.testing.assert_array_equal(lower, upper)
    return lower, lower / d.tail(xs)


class TestFrozenMixtureCurve:
    """Regression constants from the rational-arithmetic oracle."""

    def test_running_min_is_five_quarters(self):
        d = GeometricAtomMixture()
        xs = cv.tail_jumps(d, 1.0, 2047.0)
        _, ratios = twofold_ratios(d, xs)
        final_min = np.minimum.accumulate(ratios)[-1]
        assert final_min == 1.25
        i = int(np.argmin(ratios))
        assert xs[i] == 2.5
        # margin to the subexponential limit value 2
        assert 2.0 - final_min == 0.75
        assert 2.0 - final_min > 0.05

    def test_deep_range_keeps_every_pair_mass(self):
        # past 2^26 some pair masses fall below 1e-16; the two-fold keeps
        # them, so the curve stays exact that deep
        d = GeometricAtomMixture()
        _, ratios = twofold_ratios(d, cv.tail_jumps(d, 1.0, 2.0 ** 30))
        assert np.minimum.accumulate(ratios)[-1] == 1.25

    def test_late_window_minimum(self):
        d = GeometricAtomMixture()
        _, ratios = twofold_ratios(d, cv.tail_jumps(d, 205.0, 2047.0))
        assert np.minimum.accumulate(ratios)[-1] == 383.0 / 256.0

    def test_ratio_constant_on_flat_pieces(self):
        # both tails are flat strictly between atoms; the nearest jumps around
        # these probes are the pair atoms at 16 = 15+1 and 18 = 15+3
        d = GeometricAtomMixture()
        _, ratios = twofold_ratios(d, np.array([16.2, 17.0, 17.9, 18.5]))
        assert ratios[0] == ratios[1] == ratios[2]
        assert ratios[3] < ratios[2]

    def test_non_long_tail_witness(self):
        d = GeometricAtomMixture()
        for n in (3, 6, 10):
            t = 2.0 ** (n + 1) - 1.0
            assert d.tail(t) / d.tail(t - 1.0) == 0.5

    def test_pure_positive_part_against_brute_force(self):
        # sigma removed (q -> 1 limit): a pure dyadic-atom law; the exact curve
        # must match an independent pair enumeration slightly below 2*t_8
        depth = 24
        atoms = [(2.0 ** (n + 1) - 1.0, 2.0 ** -(n + 1)) for n in range(depth)]
        atoms.append((2.0 ** (depth + 1) - 1.0, 2.0 ** -depth))  # close the law
        d = DiscreteAtoms(atoms)
        x = 2.0 * 511.0 - 2.0  # just below twice the n=8 atom
        nums, ratios = twofold_ratios(d, np.array([x]))
        brute_num = sum(ma * mb
                        for la, ma in atoms for lb, mb in atoms if la + lb > x)
        brute_den = sum(m for l, m in atoms if l > x)
        assert nums[0] == pytest.approx(brute_num, rel=1e-13)
        assert ratios[0] == pytest.approx(brute_num / brute_den, rel=1e-13)

    def test_jumps_are_the_atoms_of_both_laws(self):
        d = DiscreteAtoms(((0.0, 0.5), (1.0, 0.25), (3.0, 0.25)))
        np.testing.assert_array_equal(cv.tail_jumps(d, 0.5, 4.0),
                                      [0.5, 1.0, 2.0, 3.0, 4.0])

    def test_law_without_atoms_jumps_only_at_lo(self):
        np.testing.assert_array_equal(
            cv.tail_jumps(Exponential(1.0), 1.0, 10.0), [1.0])

    def test_jumps_are_the_atoms_convolve_atoms_forms(self):
        # sums such as 0.1 + 0.2 and 0.3 lie within MERGE_TOL: the jumps
        # merge them as the pair law does
        rng = np.random.default_rng(21)
        for _ in range(20):
            locs = np.sort(rng.choice(np.arange(-5, 60), 12, replace=False))
            d = DiscreteAtoms(tuple((0.1 * k, 1.0 / 12) for k in locs))
            lo, hi = sorted(rng.uniform(-1.0, 12.0, 2))
            base = cv._atom_measure(d, hi, 2)
            atoms = np.concatenate((cv.convolve_atoms(base, base).locs,
                                    base.locs))
            want = np.unique(np.append(
                atoms[(atoms >= lo) & (atoms <= hi)], lo))
            np.testing.assert_array_equal(cv.tail_jumps(d, lo, hi), want)

    def test_span_forms_the_pair_law_once(self, monkeypatch, capsys):
        # the jumps need only the pair sums; the bracket forms the pair law
        calls = []
        form = cv.convolve_atoms
        monkeypatch.setattr(cv, "convolve_atoms",
                            lambda a, b: calls.append(1) or form(a, b))
        assert cli.main(["convolve", "--dist", "example11",
                         "--points", "1:2047:24"]) == 0
        assert "2047.0," in capsys.readouterr().out
        assert len(calls) == 1


class TestBracketFormat:
    def test_nan_tail_rejected(self):
        for lows, highs in (([np.nan], [0.4]), ([0.4], [np.nan])):
            with pytest.raises(InvalidInput, match="x=1.0"):
                cv._bracket(np.array([1.0]), np.array(lows),
                            np.array(highs))

    def test_envelope_tails_rounding_above_one_are_clamped(self):
        above = np.array([1.0 + 2.0 ** -52])
        lower, upper = cv._bracket(np.array([4.64]), above, above)
        assert (lower[0], upper[0]) == (1.0, 1.0)

    def test_ends_put_in_order(self):
        lower, upper = cv._bracket(np.array([1.0]), np.array([0.5]),
                                   np.array([0.4]))
        assert (lower[0], upper[0]) == (0.4, 0.5)

    @pytest.mark.parametrize("call", [
        lambda xs: cv.nfold_tail_bracket(Exponential(1.0), 2, xs),
        lambda xs: cv.nfold_tail_bracket(GeometricAtomMixture(), 2, xs),
        lambda xs: cv.nfold_tail_bracket_from_tail(
            Exponential(1.0).tail, 0.0, 2, xs)],
        ids=["lattice", "atomic", "from-tail"])
    @pytest.mark.parametrize("xs", [[], [math.inf], [5.0, math.nan],
                                    [-math.inf, 5.0]],
                             ids=["empty", "inf", "nan", "minus-inf"])
    def test_bad_probes_rejected(self, call, xs):
        with pytest.raises(InvalidInput):
            call(xs)

    def test_from_tail_rejects_n_zero(self):
        with pytest.raises(InvalidInput, match="n must be at least 1"):
            cv.nfold_tail_bracket_from_tail(Pareto(1.0, 1.0).tail, 1.0, 0,
                                            [5.0])


def two_call_bracket(tail_fn, support_min, n, xs, step):
    """nfold_tail_bracket_from_tail as first written: the tails evaluated
    once per envelope, and every product of each envelope formed in full,
    the last one included, before its tail is read at the probes."""
    x_max = float(np.max(xs))
    clamp_k = math.ceil((x_max - (n - 1) * min(support_min, 0.0)
                         + 2.0 * step) / step)
    hi = (clamp_k + 1) * step
    tails = []
    for side in ("lower", "upper"):
        k_lo, lattice = cv.lattice_tails(tail_fn, support_min, hi, step)
        g = cv._grid_clamp(cv.discretize_tail(k_lo, step, lattice, side),
                           clamp_k, side)
        env = cv._power(g, n, lambda a, b: cv._grid_convolve(a, b, clamp_k, side))
        tails.append(env.measure().tail(xs))
    return cv._bracket(xs, *tails)


def example11_nfold_tails(n, xs):
    """P(S_n > x) for n i.i.d. copies of the example11 law, as Fractions,
    by enumeration that shares no code with the library.

    The law puts 1/4 on -5/2 and on -1/2 and 2^-(k+2) on 2^(k+1) - 1. Atoms
    past x_max + 3n form one bucket: the other summands all exceed -3, so a
    sum touching it lies above every probe, and so does a partial sum that
    the summands still to come cannot pull back below x_max. Locations are
    doubled and masses counted in units of 2^-(top+2) per summand, so the
    enumeration runs in integers.
    """
    x_max = max(xs)
    top = 0
    while 2 ** (top + 2) - 1 <= x_max + 3 * n:
        top += 1
    unit = top + 2
    atoms = {-5: 1 << (unit - 2), -1: 1 << (unit - 2)}
    atoms.update({2 ** (k + 2) - 2: 1 << (unit - k - 2)
                  for k in range(top + 1)})
    dist, over = dict(atoms), 1          # the bucket holds 2^-(top+2)
    for j in range(2, n + 1):
        pairs = {}
        for la, ma in dist.items():
            for lb, mb in atoms.items():
                pairs[la + lb] = pairs.get(la + lb, 0) + ma * mb
        over = (over << unit) + sum(dist.values())
        dist = {}
        for loc, m in pairs.items():
            if loc - 6 * (n - j) > 2 * x_max:
                over += m
            else:
                dist[loc] = m
    return [Fraction(sum(m for loc, m in dist.items() if loc > 2 * x) + over,
                     1 << (unit * n)) for x in xs]


class TestNfoldBracket:
    @pytest.mark.parametrize("d,n", [(Pareto(1.5, 1.0), 2), (Pareto(1.0, 1.0), 4),
                                     (Weibull(0.5, 1.0), 2),
                                     (ShiftedBy(Lognormal(0.0, 1.0), -1.0), 3)],
                             ids=repr)
    def test_one_tail_evaluation_serves_both_envelopes(self, d, n):
        xs = np.geomspace(2.0, 200.0, 12)
        calls = []

        def tail_fn(t):
            calls.append(len(t))
            return d.tail(t)

        got = cv.nfold_tail_bracket_from_tail(tail_fn, d.support()[0], n, xs)
        assert len(calls) == 1
        want = two_call_bracket(d.tail, d.support()[0], n, xs, 200.0 / 4096.0)
        # the last product is summed in another order: equal to rounding
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("law", ["pareto-1.5", "pareto-1", "weibull-0.5",
                                     "shifted-lognormal", "window-pareto-1.5"])
    def test_probe_read_matches_the_full_last_product(self, law, n):
        if law == "window-pareto-1.5":
            base = Pareto(1.5, 1.0)

            def tail_fn(t):  # the h = 10 window law of strong_subexponential
                out = np.ones(len(t))
                out[t > 0.0] = fh_tail(base, 10.0, t[t > 0.0])
                return out
            support_min = 0.0
        else:
            d = {"pareto-1.5": Pareto(1.5, 1.0), "pareto-1": Pareto(1.0, 1.0),
                 "weibull-0.5": Weibull(0.5, 1.0),
                 "shifted-lognormal": ShiftedBy(Lognormal(0.0, 1.0), -1.0)}[law]
            tail_fn, support_min = d.tail, d.support()[0]
        xs = np.geomspace(2.0, 200.0, 12)
        got = cv.nfold_tail_bracket_from_tail(tail_fn, support_min, n, xs)
        want = two_call_bracket(tail_fn, support_min, n, xs, 200.0 / 4096.0)
        assert np.all(got[0] <= got[1])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exponential_nfold_contains_gamma(self, n):
        # the n-fold sum of unit exponentials is Gamma(n, 1)
        xs = np.array([0.5, 2.0, 6.0, 15.0, 30.0])
        truth = np.exp(-xs) * sum(xs ** k / math.factorial(k)
                                  for k in range(n))
        lower, upper = cv.nfold_tail_bracket(Exponential(1.0), n, xs)
        assert np.all(lower <= truth) and np.all(truth <= upper)

    @pytest.mark.parametrize("n,products", [(2, 0), (3, 2), (4, 2), (5, 4)])
    def test_last_product_is_never_formed(self, monkeypatch, n, products):
        # each envelope builds S_floor(n/2) and S_ceil(n/2) only
        calls = []
        full = np.convolve

        def counted(a, b):
            calls.append((len(a), len(b)))
            return full(a, b)

        monkeypatch.setattr(np, "convolve", counted)
        cv.nfold_tail_bracket(Pareto(1.0, 1.0), n, np.geomspace(2.0, 200.0, 12))
        assert len(calls) == products

    def test_dense_probes_cost_no_more_than_the_full_product(self):
        # at the 10,000-point grid cap nearly every lattice index is a probe:
        # the blocked read must stay within the full product's memory and time
        d = Pareto(1.0, 1.0)
        xs = np.geomspace(2.0, 200.0, 10_000)
        step = 200.0 / 4096.0
        runs = {
            "probe": lambda: cv.nfold_tail_bracket_from_tail(d.tail, 1.0, 2, xs),
            "full": lambda: two_call_bracket(d.tail, 1.0, 2, xs, step)}
        peaks, best = {}, {name: math.inf for name in runs}
        for name, run in runs.items():
            tracemalloc.start()
            try:
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # alternate, swapping the order each round, so a slow spell or a
        # cache left warm by the other side hits both alike; no collection
        # runs inside a timed call
        order = list(runs)
        gc.disable()
        try:
            for _ in range(25):
                order.reverse()
                for name in order:
                    t0 = time.perf_counter()
                    runs[name]()
                    best[name] = min(best[name], time.perf_counter() - t0)
        finally:
            gc.enable()
        assert peaks["probe"] <= peaks["full"] + 2 * 2 ** 20, peaks
        assert best["probe"] <= 1.2 * best["full"], best

    def test_upper_envelope_wholly_in_the_overflow(self):
        # every probe lies below the support: the upper envelope clamps all
        # of its mass into the overflow bucket and has no finite atom left
        for n in (2, 3):
            lower, upper = cv.nfold_tail_bracket(Pareto(1.0, 10.0), n,
                                                 [2.0, 5.0])
            assert list(zip(lower, upper)) == [(1.0, 1.0)] * 2

    def test_exponential_twofold_contains_gamma(self):
        # Gamma(2,1) tail at 9 is (1+9)e^-9
        truth = 10.0 * math.exp(-9.0)
        (lower,), (upper,) = cv.nfold_tail_bracket(Exponential(1.0), 2, [9.0])
        assert lower <= truth <= upper
        assert (upper - lower) / truth < 0.02

    def test_exponential_threefold_contains_gamma(self):
        x = 12.0
        truth = (1.0 + x + x * x / 2.0) * math.exp(-x)
        (lower,), (upper,) = cv.nfold_tail_bracket(Exponential(1.0), 3, [x])
        assert lower <= truth <= upper

    def test_pareto_twofold_against_quadrature(self):
        # split on whether X2 > x-1 (then X1 >= 1 already pushes the sum past x):
        # P(S > x) = tail(x-1) + int_1^{x-1} f(y) tail(x-y) dy
        d = Pareto(1.5, 1.0)
        for x in (10.0, 50.0):
            part, _ = integrate.quad(
                lambda y: d.tail(x - y) * 1.5 * y ** -2.5, 1.0, x - 1.0)
            truth = part + d.tail(x - 1.0)
            (lower,), (upper,) = cv.nfold_tail_bracket(d, 2, [x],
                                                       grid_step=x / 8192.0)
            assert lower <= truth <= upper

    def test_pareto_one_ratio_refines_toward_two(self):
        # independent two-fold of a unit-slope power tail: the refined bracket
        # pins midpoint/(2*tail) near 1, and the residual (of order log x / x)
        # shrinks as x grows
        d = Pareto(1.0, 1.0)
        offsets = []
        for x in (1000.0, 10000.0):
            widths = []
            for step in (x / 1024.0, x / 4096.0):
                (lower,), (upper,) = cv.nfold_tail_bracket(d, 2, [x],
                                                           grid_step=step)
                widths.append(upper - lower)
            assert widths[1] <= widths[0] + 1e-15
            midpoint = 0.5 * (lower + upper)
            offsets.append(abs(midpoint / (2.0 * d.tail(x)) - 1.0))
            assert offsets[-1] < 0.02
        assert offsets[1] < offsets[0]

    def test_atomic_path_zero_width(self):
        d = GeometricAtomMixture()
        lower, upper = cv.nfold_tail_bracket(d, 2, [10.0, 63.0, 500.0])
        for width in upper - lower:
            assert width == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_atomic_nfold_is_exact_deep_in_the_tail(self, n):
        # no pair mass is dropped, however small: the bracket has zero width
        # and matches rational enumeration to rounding out to 2^30
        xs = np.geomspace(2.0, 2.0 ** 30, 24)
        lower, upper = cv.nfold_tail_bracket(GeometricAtomMixture(), n, xs)
        exact = np.array([float(t) for t in
                          example11_nfold_tails(n, xs.tolist())])
        np.testing.assert_array_equal(lower, upper)
        np.testing.assert_allclose(lower, exact, rtol=1e-15, atol=0)

    def test_atomic_binomial_exact(self):
        d = DiscreteAtoms(((0.0, 0.5), (1.0, 0.5)))
        (lo15, lo25), (hi15, hi25) = cv.nfold_tail_bracket(d, 3, [1.5, 2.5])
        assert lo15 == hi15 == 0.5
        assert lo25 == hi25 == 0.125

    def test_monotone_refinement_never_widens(self):
        probes = [3.0, 6.0, 9.0]
        fams = [Exponential(1.0), Weibull(0.5, 1.0), Lognormal(0.0, 1.0),
                Pareto(1.5, 1.0)]
        for d in fams:
            prev = None
            for step in (0.05, 0.025, 0.0125):
                lower, upper = cv.nfold_tail_bracket(d, 2, probes,
                                                     grid_step=step)
                if prev is not None:
                    old_lower, old_upper = prev
                    assert np.all(upper - lower
                                  <= old_upper - old_lower + 1e-15)
                    assert np.all(old_lower - 1e-15 <= lower)
                    assert np.all(upper <= old_upper + 1e-15)
                prev = lower, upper

    def test_shifted_support_handled(self):
        d = ShiftedBy(Exponential(1.0), -2.0)
        truth = 10.0 * math.exp(-9.0)  # shift by -4 total: P(S+(-4) > 5) = Gamma tail at 9
        (lower,), (upper,) = cv.nfold_tail_bracket(d, 2, [5.0], grid_step=0.002)
        assert lower <= truth <= upper

    def test_bracket_contains_monte_carlo(self):
        # sampling cross-check on several built-in families
        cases = [
            (Exponential(1.0), 2, 6.0),
            (Pareto(1.5, 1.0), 2, 20.0),
            (Weibull(0.5, 1.0), 2, 15.0),
            (Lognormal(0.0, 1.0), 2, 10.0),
            (GeometricAtomMixture(), 2, 40.0),
        ]
        n_samples = 200_000
        for label, (d, n, x) in enumerate(cases):
            rng = block_stream(99, (1 << 48) + label)
            draws = d.sample(rng, n_samples * n).reshape(n_samples, n).sum(axis=1)
            p_hat = float(np.mean(draws > x))
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n_samples)
            (lower,), (upper,) = cv.nfold_tail_bracket(d, n, [x])
            assert lower - 4 * se <= p_hat <= upper + 4 * se, (
                f"{type(d).__name__}: mc={p_hat} bracket=({lower},{upper})")

    def test_rejects_n_zero(self):
        with pytest.raises(InvalidInput):
            cv.nfold_tail_bracket(Exponential(1.0), 0, [1.0])

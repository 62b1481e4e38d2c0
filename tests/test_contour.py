import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from delaywave import contour
from delaywave.chareq import (
    DelayGains,
    DelaySystem,
    ExpSum,
    Rational,
    char_expsum,
    direct_feedback_system,
    equal_gain_system,
    eval_char,
)
from delaywave.contour import (
    NO_ROOTS,
    ComplexRect,
    MaxDepthExceeded,
    OnContourZero,
    _chord_cut,
    _sample_hint,
    _single,
    count_in_disk,
    count_in_strip,
    isolate_and_refine,
    min_unstable_imag,
    re_bound,
    spectral_abscissa,
    winding_rect,
)
from delaywave.polyform import PolyReal, disk_roots, reduce_to_polynomial


def equal_sys(m, n, c):
    return equal_gain_system(c, m / n, Rational(m, n))


def _box_windings(func, box, n0):
    """``contour._rect_windings`` of the boxes with every edge of box p
    starting from ``n0[p]`` samples."""
    path, _ = contour._edges(box)
    return contour._windings(func, path, np.repeat(n0, 4), 4)


def _box_count(func, rect, n0):
    """The count of ``rect`` from ``n0`` samples per edge, or its OnContourZero."""
    return _single(_box_windings(func, [(rect.re_min, rect.re_max, rect.im_min, rect.im_max)], [n0]))


def _hint(func, rect):
    """The density ``_sample_hint`` gives an edge as long as the longer side of ``rect``."""
    return int(_sample_hint(func, max(rect.re_max - rect.re_min, rect.im_max - rect.im_min)))


# ---------------------------------------------------------------- winding


class TestWindingRect:
    def test_polynomial_pair(self):
        rect = ComplexRect(-2, 2, -2, 2)
        assert winding_rect(lambda z: z * z + 0.5, rect) == 2

    def test_single_char_root(self):
        s = equal_sys(2, 1, -0.25)
        rect = ComplexRect(-1, 1, 0.5, 2.5)
        assert winding_rect(char_expsum(s), rect) == 1

    def test_far_right_empty(self):
        s = equal_sys(2, 1, -0.25)
        reb = re_bound(s)
        rect = ComplexRect(reb, reb + 3, 0, 10)
        assert winding_rect(char_expsum(s), rect) == 0

    def test_integer_stable_under_refinement(self):
        s = equal_sys(4, 1, 0.6)
        rect = ComplexRect(-0.7, 0.9, 0.1, 6.0)
        counts = {_box_count(char_expsum(s), rect, n0) for n0 in (17, 33, 129, 513)}
        assert len(counts) == 1

    def test_on_contour_zero(self):
        rect = ComplexRect(-1, 1, math.sqrt(0.5), 2)  # root i*sqrt(0.5) on the bottom edge
        with pytest.raises(OnContourZero):
            winding_rect(lambda z: z * z + 0.5, rect)

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            ComplexRect(1, 1, 0, 2)

    @pytest.mark.parametrize("bounds", [(0, math.inf, 0, 1), (-math.inf, 0, 0, 1), (0, 1, math.nan, 1)])
    def test_non_finite_rect_rejected(self, bounds):
        # an infinite edge used to reach isolate_and_refine and fail there
        # with OverflowError in the sample hint
        with pytest.raises(ValueError, match="finite"):
            ComplexRect(*bounds)

    def test_coarse_start_raised_to_the_sample_hint(self):
        # two samples per edge aliased both roots away under sample doubling,
        # whose rounds of 5 and 9 samples agreed on that 0; the half check
        # refines those steps, and winding_rect starts from the hint
        f = char_expsum(equal_sys(2, 1, -0.25))
        rect = ComplexRect(-1, 1, 0.5, 7)
        for n0 in (2, _hint(f, rect)):
            assert _box_count(f, rect, n0) == 2

    def test_each_edge_starts_from_its_own_density(self, monkeypatch):
        # a box 1 wide and 600 tall: its short edges start from 17 samples
        # and its long ones from 600, where the density of the longer side
        # on all four edges took 4,793 points in the first call
        calls = TestIsolate._array_calls(monkeypatch)
        f = char_expsum(equal_sys(2, 1, -0.25))
        assert winding_rect(f, ComplexRect(-1, 0, 0.1, 600.1)) == 191
        assert calls[0] == 2 * (2 * 17 - 1) + 2 * (2 * 600 - 1)

    def test_midpoint_check_evaluates_every_sample_once(self):
        # a simple zero well inside: no step or half turns by pi/2, so the
        # count settles at the first midpoint check, one call of the grid of
        # 2 N - 1 samples, without bisection
        points = []

        def func(z):
            points.append(z.size)
            return z - (0.1 + 0.2j)

        n0 = 17
        assert _box_count(func, ComplexRect(-1, 1, -1, 1), n0) == 1
        assert points == [4 * (2 * n0 - 1)]

    @pytest.mark.parametrize(
        "sysd, box, expected",
        [
            (equal_sys(2, 1, -0.25), (-1, 1, 0.5, 2.5), 1),
            (equal_sys(4, 1, 0.6), (-0.7, 0.9, 0.1, 6.0), 4),
            (equal_sys(3, 2, -0.5), (-1.5, 0.5, 0.1, 12.0), 4),
            (DelaySystem(DelayGains(0.3, -0.2), 1.37), (-3.0, 1.0, -20.0, 20.0), 20),
            (DelaySystem(DelayGains(-0.6, -0.2), 1.5, Rational(3, 2)), (-2.0, 0.5, 0.05, 30.0), 17),
            (direct_feedback_system(0.5, 1.5), (-2.0, 1.0, -15.0, 15.0), 17),
            (direct_feedback_system(-0.8, 0.7), (-1.0, 2.0, 0.3, 40.0), 17),
        ],
    )
    def test_counts_on_fixtures(self, sysd, box, expected):
        # counts of the engine that re-evaluated every sample in each round
        f = char_expsum(sysd)
        rect = ComplexRect(*box)
        for n0 in (17, _hint(f, rect)):
            assert _box_count(f, rect, n0) == expected


def _bisecting_track(func, path, t, w, zero_tol, max_pass=60):
    """The midpoint-only argument tracker the chord cuts replaced: every pass
    re-scans the whole sample array and bisects each step of pi/2 or more."""
    for _ in range(max_pass):
        if np.any(np.abs(w) < zero_tol):
            raise OnContourZero("|func| below tolerance on contour")
        dphi = np.angle(w[1:] / w[:-1])
        bad = np.flatnonzero(np.abs(dphi) >= 0.5 * np.pi)
        if not bad.size:
            return float(dphi.sum())
        tm = 0.5 * (t[bad] + t[bad + 1])
        t = np.insert(t, bad + 1, tm)
        w = np.insert(w, bad + 1, func(path(tm)))
    raise OnContourZero("argument tracking did not settle (zero very near contour)")


def _doubling_windings(func, path, n, per):
    """The engine the half check replaced, behind ``contour._windings``'
    interface: the ``per`` paths of each contour stitched into one closed
    path, a 1 / ``per`` of its parameter each, tracked by ``_bisecting_track``,
    contour by contour, from as many steps as its paths have, and tracked
    again at doubled density until two rounds agree, 8 rounds at most.  An
    ExpSum is tracked divided by the size of its terms, as there."""
    if isinstance(func, ExpSum):
        es = func
        func = lambda z: es(z) / np.maximum(es.magnitude(z), 1.0)
    n = np.asarray(n)
    k, why = [0] * (n.size // per), {}
    for p in range(len(k)):
        size = int((n[p * per:(p + 1) * per] - 1).sum()) + 1

        def on_p(s, p=p):
            e = np.minimum((per * s).astype(int), per - 1)
            return path(p * per + e, per * s - e)

        prev = None
        for _ in range(8):
            t = np.linspace(0.0, 1.0, size)
            try:
                x = _bisecting_track(func, on_p, t, func(on_p(t)), contour._ZERO_TOL) / (2.0 * np.pi)
            except OnContourZero as exc:
                why[p] = str(exc)
                break
            if not (math.isfinite(x) and abs(x - round(x)) <= 0.25):
                why[p] = f"non-integer winding {x:.3f}"
                break
            if round(x) == prev:
                k[p] = prev
                break
            prev, size = round(x), 2 * size - 1
        else:
            why[p] = "winding did not stabilise under sample doubling"
    return k, why


def _exact_contacts(why, func, z, pid, w, npaths):
    """``contour._contacts`` with the size of the terms of an ExpSum computed
    at every sample: a contact is |w| / max(1, magnitude) < ``_ZERO_TOL``."""
    size = np.maximum(func.magnitude(z), 1.0) if isinstance(func, ExpSum) else 1.0
    low = np.abs(w / size) < contour._ZERO_TOL
    if not low.any():
        return None
    for p in set(pid[low].tolist()):
        why.setdefault(p, "|func| below tolerance on contour")
    open_ = np.ones(npaths, dtype=bool)
    open_[list(why)] = False
    return open_


def _counted(func):
    calls = []

    def f(z):
        calls.append(z.size)
        return func(z)

    return f, calls


def _outcome(func, rect):
    try:
        return winding_rect(func, rect)
    except OnContourZero:
        return "contact"


def _old_outcome(func, rect):
    """``_outcome`` under the engine of midpoint bisection and doubling."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contour, "_windings", _doubling_windings)
        return _outcome(func, rect)


# the cascade loop and its two one-gain families, built from a drawn (c1, c2)
_FAMILY_GAINS = {
    "two gains": lambda c1, c2: DelayGains(c1, c2),
    "equal gains": lambda c1, c2: DelayGains(c1, c1),
    "direct feedback": lambda c1, c2: DelayGains(0.0, c2),
}


def _family_system(family, c1, c2, m, n):
    return DelaySystem(_FAMILY_GAINS[family](c1, c2), m / n, Rational(m, n))


def _drawn_box(data, zs, n):
    """A box with edges on the 0.25 x pi/4 lattice that splits boxes through
    root rows, or, when ``zs`` (nonzero disk-polynomial roots at delay
    denominator ``n``) is not empty and the draw says so, one with an edge
    moved exactly onto a root lam = -n log z + 2 pi i n j."""
    q = math.pi / 4
    steps = st.integers(1, 8)
    if zs and data.draw(st.booleans(), label="through a root"):
        z = data.draw(st.sampled_from(zs), label="z")
        lam = -n * np.log(complex(z)) + 2j * np.pi * n * data.draw(st.integers(-1, 1), label="j")
        x, y = lam.real, lam.imag
        xl, yl = 0.25 * math.floor(x / 0.25), q * math.floor(y / q)
        re = (xl - 0.25 * data.draw(st.integers(0, 3)), xl + 0.25 * data.draw(steps))
        im = (yl - q * data.draw(st.integers(0, 3)), yl + q * data.draw(steps))
        side = data.draw(st.sampled_from(["left", "right", "bottom", "top"]), label="side")
        if side == "left":
            re = (x, x + 0.25 * data.draw(steps))
        elif side == "right":
            re = (x - 0.25 * data.draw(steps), x)
        elif side == "bottom":
            im = (y, y + q * data.draw(steps))
        else:
            im = (y - q * data.draw(steps), y)
    else:
        lo_re, lo_im = data.draw(st.integers(-12, 4)), data.draw(st.integers(-16, 16))
        re = (0.25 * lo_re, 0.25 * (lo_re + data.draw(steps)))
        im = (q * lo_im, q * (lo_im + data.draw(steps)))
    return ComplexRect(re[0], re[1], im[0], im[1])


class TestTrack:
    # f = -e^{-lam} (e^{2 lam} + 1 + 2c) / 2 at tau = 2, c = -0.25: simple
    # zeros at ln(0.5)/2 + i (pi/2 + k pi)
    F = char_expsum(equal_sys(2, 1, -0.25))
    RE0 = 0.5 * math.log(0.5)

    @pytest.mark.parametrize("box", [(-1, 1, 0.5, math.pi / 2), (RE0, 1, 0.5, 2.5)])
    def test_contact_found_within_budget(self, box):
        # plain bisection takes more than 30 passes to come within 1e-12
        f, calls = _counted(self.F)
        with pytest.raises(OnContourZero):
            winding_rect(f, ComplexRect(*box))
        assert len(calls) <= 10

    @pytest.mark.parametrize(
        "box, expected",
        [
            ((-1, 1, 0.5, math.pi / 2 + 1e-9), 1),
            ((-1, 1, 0.5, math.pi / 2 - 1e-9), 0),
            ((RE0 - 1e-9, 1, 0.5, 2.5), 1),
            ((RE0 + 1e-9, 1, 0.5, 2.5), 0),
        ],
    )
    def test_root_just_off_an_edge_is_counted(self, box, expected):
        # the chord cut falls at the foot of the perpendicular, where |f| is
        # about |f'| 1e-9, far above the contact tolerance; plain bisection
        # takes 53 calls
        f, calls = _counted(self.F)
        assert winding_rect(f, ComplexRect(*box)) == expected
        assert len(calls) <= 30

    def test_a_step_whose_half_turns_by_pi_over_2_is_cut(self):
        # a zero 0.05 above the bottom edge of [-1, 1]^2 and one 0.05 below:
        # from 2 samples per edge that edge is one step turning by 0, which
        # the old rule settled, but each of its halves turns by about 2.2
        def g(z):
            return (z - (0.1 - 0.95j)) * (z - (-0.1 - 1.05j))

        assert abs(np.angle(g(1 - 1j) / g(-1 - 1j))) < 0.5 * np.pi <= abs(np.angle(g(-1j) / g(-1 - 1j)))
        f, calls = _counted(g)
        assert _box_count(f, ComplexRect(-1, 1, -1, 1), 2) == 1
        # a box that settles at once takes one call, the grid of 2 * 2 - 1
        # samples of each edge with its midpoints; this one goes on to cut steps
        assert calls[0] == 12 and len(calls) > 1

    def test_degenerate_chord_cuts_at_the_midpoint(self):
        wa = np.array([1 + 1j, np.inf, 1.0, np.nan, -1.0, -1.0, 1 + 1j, -3.0])
        wb = np.array([1 + 1j, 1.0, np.nan, 1.0, 1.0, 3.0, 2 + 1j, 1.0])
        assert _chord_cut(wa, wb).tolist() == [0.5, 0.5, 0.5, 0.5, 0.5, 0.25, 0.0, 0.75]

    def test_far_left_edge_through_a_root_is_a_contact(self):
        # the left edge passes 6e-17 from the root -6.9078 - 4.7124i of two
        # gains (0.02, 0.01) at tau = 2/3, where the terms are 1e3 in size
        # and rounding leaves |f| at about 1e-12 on the edge: against an
        # absolute tolerance the bisecting tracker counted 0 and the chord
        # cuts met a contact
        func = char_expsum(DelaySystem(DelayGains(0.02, 0.01), 2 / 3, Rational(2, 3)))
        rect = ComplexRect(-6.907758278970137, -6.657758278970137, -5.497787143782138, -3.9269908169872414)
        assert func.magnitude(rect.re_min) > 999
        assert _outcome(func, rect) == "contact"
        assert _old_outcome(func, rect) == "contact"

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(list(_FAMILY_GAINS)),
        st.integers(-200, 200).map(lambda k: k / 100),
        st.integers(-200, 200).map(lambda k: k / 100),
        st.integers(1, 6),
        st.integers(1, 3),
        st.data(),
    )
    def test_same_outcome_as_bisection(self, family, c1, c2, m, n, data):
        assume(math.gcd(m, n) == 1)
        sysd = _family_system(family, c1, c2, m, n)
        func = char_expsum(sysd)
        p = reduce_to_polynomial(sysd)
        zs = [z for z in disk_roots(p).roots if z != 0] if p.degree > 0 else []
        rect = _drawn_box(data, zs, n)
        new = _outcome(func, rect)
        old = _old_outcome(func, rect)
        event(f"{family} {'contact' if old == 'contact' else 'count'}")
        assert new == old


class TestBatchedWinding:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(list(_FAMILY_GAINS)),
        st.integers(-200, 200).map(lambda k: k / 100),
        st.integers(-200, 200).map(lambda k: k / 100),
        st.integers(1, 6),
        st.integers(1, 3),
        st.data(),
    )
    def test_each_box_as_if_alone(self, family, c1, c2, m, n, data):
        # a batch mixes lattice boxes with boxes that have an edge exactly
        # through a root; a contact in one box leaves the others' counts, and
        # each box comes out as the engine of bisection and doubling gives it
        # when wound alone
        assume(math.gcd(m, n) == 1)
        sysd = _family_system(family, c1, c2, m, n)
        func = char_expsum(sysd)
        p = reduce_to_polynomial(sysd)
        zs = [z for z in disk_roots(p).roots if z != 0] if p.degree > 0 else []
        rects = [_drawn_box(data, zs, n) for _ in range(data.draw(st.integers(1, 6), label="boxes"))]
        box = [(r.re_min, r.re_max, r.im_min, r.im_max) for r in rects]
        k, why = _box_windings(func, box, [_hint(func, r) for r in rects])
        batched = ["contact" if i in why else k[i] for i in range(len(rects))]
        alone = [_old_outcome(func, r) for r in rects]
        event(f"{family} {sum(b == 'contact' for b in batched)} of {len(rects)} in contact")
        assert batched == alone

    def test_contact_leaves_the_other_boxes(self):
        f = TestTrack.F
        re0 = TestTrack.RE0
        box = [(-1, 1, 0.5, 2.5), (re0, 1, 0.5, 2.5), (-1, 1, 0.5, math.pi / 2), (-1, 1, 0.5, 7)]
        k, why = _box_windings(f, box, [17] * 4)
        assert sorted(why) == [1, 2]
        assert (k[0], k[3]) == (1, 2)
        assert all("tolerance" in msg for msg in why.values())

    # (a) tau = 0.001 and equal gains 1, re_bound 693.6: the rates are -1, 0.999
    # and 1, so the sum is rescaled beyond |Re| = 600, and the boxes run across
    # that line; the third has its left edge through the root 693.147 + 3141.593i
    # (b) two gains (2e-4, 1e-4) at tau = 2/3: the left edge passes through the
    # root -13.8155 - 4.7124i, where the terms are 1e6 in size and |f| is
    # 1.3e-9, so an absolute test finds no contact
    @pytest.mark.parametrize(
        "sysd, box, contacts",
        [
            (
                DelaySystem(DelayGains(1.0, 1.0), 0.001, Rational(1, 1000)),
                [
                    (590, 610, 3100, 3200),
                    (550, 700, 3000, 3300),
                    (693.147180559903, 700, 3100, 3200),
                    (-610, -590, 0, 100),
                    (-1, 0, 1, 2),
                ],
                [2],
            ),
            (
                DelaySystem(DelayGains(2e-4, 1e-4), 2 / 3, Rational(2, 3)),
                [(-13.815510557967272, -13.565510557967272, -5.497787143782138, -3.9269908169872414)],
                [0],
            ),
        ],
    )
    def test_contacts_as_under_the_exact_size_at_every_sample(self, sysd, box, contacts):
        # the size of the terms is computed only below _ZERO_TOL times a bound
        # on it: none where the batch is rescaled anywhere, the larger of its
        # values at the least and greatest Re where it is not
        func = char_expsum(sysd)
        n0 = [int(_sample_hint(func, max(b[1] - b[0], b[3] - b[2]))) for b in box]
        lazy = _box_windings(func, box, n0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(contour, "_contacts", _exact_contacts)
            exact = _box_windings(func, box, n0)
        assert lazy == exact
        assert sorted(lazy[1]) == contacts

    def test_one_call_per_pass_for_all_paths(self):
        # paths that settle at the first midpoint check cost one call, the
        # grid and its midpoints, however many paths there are
        calls = []

        def func(z):
            calls.append(z.size)
            return z - (0.1 + 0.2j)

        box = [(-1, 1, -1, 1), (0.5, 1, -1, 1), (-1, 1, 0.3, 1), (-3, 3, -3, 3)]
        k, why = _box_windings(func, box, [17] * 4)
        assert (k, why) == ([1, 0, 0, 1], {})
        assert calls == [4 * 4 * (2 * 17 - 1)]


class TestCountInDisk:
    def test_saturated_gain_counts(self):
        for m, n in [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]:
            for c in (1.5, -1.5):
                assert count_in_disk(reduce_to_polynomial(equal_sys(m, n, c))) == m

    def test_all_roots_outside(self):
        assert count_in_disk(reduce_to_polynomial(equal_sys(4, 1, 0.25))) == 0

    def test_reciprocal_split_tau_one(self):
        # |c| > 1: one root strictly inside (product of the pair is 1)
        assert count_in_disk(reduce_to_polynomial(equal_sys(1, 1, 1.5))) == 1

    def test_tau_one_small_gain_sits_on_circle(self):
        # |c| < 1 puts the conjugate pair exactly on |z| = 1: contact, and the
        # modulus oracle confirms both roots are on the circle
        p = reduce_to_polynomial(equal_sys(1, 1, 0.3))
        with pytest.raises(OnContourZero):
            count_in_disk(p)
        r = disk_roots(p)
        assert r.count_on == 2 and r.count_inside == 0

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 100:
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 5))
            if math.gcd(m, n) != 1:
                continue
            c = float(rng.uniform(-2, 2))
            p = reduce_to_polynomial(equal_sys(m, n, c))
            r = disk_roots(p)
            if p.degree == 0 or min(abs(abs(z) - 1) for z in r.roots) < 1e-6:
                continue
            assert count_in_disk(p) == r.count_inside
            done += 1

    # gains on a 1e-6 grid: the leading coefficient c1 - c2 is 0 or at least
    # 1e-6; below about 1e-18 the companion reference misplaces every root
    GAIN = st.integers(-2_000_000, 2_000_000).map(lambda k: k / 1e6)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 198), GAIN, GAIN)
    def test_matches_companion_to_degree_200(self, n, m, c1, c2):
        assume(m + 2 * n <= 200 and math.gcd(m, n) == 1)
        p = reduce_to_polynomial(DelaySystem(DelayGains(c1, c2), m / n, Rational(m, n)))
        assume(p.degree > 0)
        r = disk_roots(p)
        assume(min(abs(abs(z) - 1.0) for z in r.roots) > 1e-6)
        assert count_in_disk(p) == r.count_inside

    def test_dense_polynomials_match_roots(self):
        # every coefficient nonzero: the sparse evaluation sums all terms
        rng = np.random.default_rng(11)
        done = 0
        while done < 40:
            p = PolyReal.from_coeffs(rng.uniform(-2.0, 2.0, int(rng.integers(2, 13))))
            r = disk_roots(p)
            if min(abs(abs(z) - 1) for z in r.roots) < 1e-6:
                continue
            assert count_in_disk(p) == r.count_inside
            done += 1


class TestCountInStrip:
    def test_validation(self):
        s = equal_sys(3, 2, 0.5)
        with pytest.raises(ValueError):
            count_in_strip(s, 0, 2)
        with pytest.raises(ValueError):
            count_in_strip(s, 2, 1)
        with pytest.raises(ValueError):
            count_in_strip(DelaySystem(DelayGains(0.1, 0.2), 2.0), 1, 2)

    @pytest.mark.parametrize("tau, c, a, b", [(1.5, 2.0, -1, 1), (3.0, -0.7, 1, 4), (math.sqrt(2), 0.9, -3, 2)])
    def test_any_tag_with_equal_gains(self, tau, c, a, b):
        s = DelaySystem(DelayGains(c, c), tau)
        assert count_in_strip(s, a, b) == count_in_strip(equal_gain_system(c, tau), a, b)

    def _multistart_oracle(self, sysd, a, b, re_max):
        # independent root count: Newton from a dense start grid, dedupe
        from delaywave.chareq import g_expsum

        f = g_expsum(sysd.tau, sysd.c2)
        df = f.derivative()
        found = []
        res = 41
        for re0 in np.linspace(0.01, re_max, res):
            for im0 in np.linspace(a * np.pi, b * np.pi, 4 * res):
                z = complex(re0, im0)
                for _ in range(60):
                    d = complex(df(np.array([z]))[0])
                    if d == 0:
                        break
                    step = complex(f(np.array([z]))[0]) / d
                    z -= step
                    if abs(step) < 1e-13:
                        break
                if (
                    abs(complex(f(np.array([z]))[0])) < 1e-10
                    and 1e-9 < z.real <= re_max
                    and a * np.pi < z.imag < b * np.pi
                    and all(abs(z - w) > 1e-6 for w in found)
                ):
                    found.append(z)
        return len(found)

    def test_surd_delay_nonzero(self):
        s = equal_gain_system(0.7, 1393 / 985)
        count = count_in_strip(s, -3, 3)
        assert count >= 1
        upper = count_in_strip(s, 1, 3)  # conjugate symmetry: strips split evenly
        oracle = self._multistart_oracle(s, 1, 3, re_bound(s))
        assert upper == oracle

    def test_three_halves_large_gain(self):
        s = equal_sys(3, 2, 2.0)
        count = count_in_strip(s, -1, 1)
        assert count >= 1
        assert count == self._multistart_oracle(s, -1, 1, re_bound(s))

    def test_axis_roots_contact_then_shift(self):
        # c = 0 puts every root exactly on the imaginary axis
        s = equal_gain_system(0.0, 2.5, Rational(5, 2))
        with pytest.raises(OnContourZero):
            count_in_strip(s, -2, 2)
        shifted = ComplexRect(-1e-6, re_bound(s) + 1.0, -2 * np.pi, 2 * np.pi)
        k = winding_rect(char_expsum(s), shifted)
        assert k == 4  # i(k+1/2)pi for k = -2..1


# ---------------------------------------------------------------- isolation


class TestIsolate:
    def test_two_simple_roots(self):
        s = equal_sys(2, 1, -0.25)
        roots = isolate_and_refine(s, ComplexRect(-1, 0.5, 0, 7))
        assert len(roots) == 2
        expected = [np.log(0.5) / 2 + 1j * np.pi / 2, np.log(0.5) / 2 + 3j * np.pi / 2]
        for rec, want in zip(roots, expected):
            assert rec.lam == pytest.approx(want, abs=1e-10)
            assert rec.residual < 1e-10
            assert rec.multiplicity == 1

    def test_unstable_root_found(self):
        s = equal_sys(4, 1, 0.6)
        roots = isolate_and_refine(s, ComplexRect(0, 1, 0, 2 * np.pi))
        assert any(r.lam.real > 0 for r in roots)

    def test_empty_far_right(self):
        s = equal_sys(2, 1, -0.25)
        assert isolate_and_refine(s, ComplexRect(2, 3, 0, 7)) == []

    def test_double_root(self):
        s = equal_sys(4, 1, 0.125)
        roots = isolate_and_refine(s, ComplexRect(-1, 0.2, 0.2, 2.8))
        assert len(roots) == 1
        rec = roots[0]
        assert rec.multiplicity == 2
        assert rec.lam == pytest.approx(-0.5 * np.log(2) + 0.5j * np.pi, abs=1e-9)

    def test_near_double_pair_kept_apart(self):
        s = equal_sys(4, 1, 0.125 + 1e-6)
        roots = isolate_and_refine(s, ComplexRect(-1, 0.2, 0.2, 2.8))
        assert sorted(r.multiplicity for r in roots) == [1, 1]
        assert abs(roots[0].lam - roots[1].lam) > 1e-4

    def test_conjugate_pairing(self):
        s = equal_sys(3, 1, 0.8)
        roots = isolate_and_refine(s, ComplexRect(-1.5, re_bound(s), 0.05, 6.0))
        assert roots
        for rec in roots:
            assert abs(eval_char(s, np.conj(rec.lam))) < 1e-9

    def test_root_consistency_with_eigenfunctions(self):
        # every refined root admits an eigenfunction whose boundary algebra closes
        from delaywave.chareq import eigenfunction

        s = equal_sys(3, 2, 0.9)
        roots = isolate_and_refine(s, ComplexRect(-1.5, 1.0, 0.05, 9.0))
        assert roots
        for rec in roots:
            assert abs(eval_char(s, rec.lam)) < 1e-10
            x, f, g, h = eigenfunction(s, rec.lam, 2000)
            assert abs(h[0] + s.c1 * h[-1] + s.c2 * g[-1]) < 1e-8

    def test_separation(self):
        s = equal_sys(3, 2, 0.9)
        roots = isolate_and_refine(s, ComplexRect(-1.5, 1.0, 0.05, 9.0))
        assert len(roots) >= 2
        lams = [r.lam for r in roots]
        dmin = min(
            abs(a - b) for i, a in enumerate(lams) for b in lams[i + 1 :]
        )
        assert dmin > 0.05

    def test_far_right_root_accepted_by_backward_error(self):
        # tau = 0.01 sqrt(2), c = 1: a root near Re 49, where the terms of
        # f are about e^98 and |f| at the rounded root is about 4e28
        s = equal_gain_system(1.0, 0.01 * math.sqrt(2))
        f = char_expsum(s)
        (rec,) = isolate_and_refine(s, ComplexRect(-1e-9, re_bound(s), 200, 240))
        assert rec.lam == pytest.approx(49.0129071734 + 222.1441469079j, abs=1e-8)
        assert rec.residual == abs(complex(f(rec.lam)))  # the record keeps the absolute |f|
        assert rec.residual < 1e-10 * float(f.magnitude(rec.lam))

    def test_magnitude_is_the_size_of_the_terms(self):
        f = char_expsum(equal_sys(3, 2, 0.4))
        lam = 0.3 + 2.0j
        expected = sum(abs(c) * math.exp(a * lam.real) for c, a in zip(f.coefs, f.rates))
        assert float(f.magnitude(lam)) == pytest.approx(expected, rel=1e-14)
        # rescaled like the sum itself where the exponents would overflow
        far = 700.0 + 1.0j
        assert abs(complex(f(far))) / float(f.magnitude(far)) <= 1.0 + 1e-12

    @staticmethod
    def _array_calls(monkeypatch):
        """The sizes of the array calls of every ExpSum from now on."""
        calls = []
        plain = ExpSum.__call__

        def counted(self, lam):
            if np.ndim(lam):
                calls.append(np.size(lam))
            return plain(self, lam)

        monkeypatch.setattr(ExpSum, "__call__", counted)
        return calls

    def test_array_calls_per_portrait(self, monkeypatch):
        # three root periods of the 2/1 equal-gain loop: the slabs of every
        # box of a level are wound in one batch.  Winding one box at a time
        # took 65 array calls, and halving every box 14 calls, for 4,199 points.
        calls = self._array_calls(monkeypatch)
        s = equal_sys(2, 1, 0.1)
        roots = isolate_and_refine(s, ComplexRect(-2.0, 0.5, 0.3, 0.3 + 6 * math.pi))
        assert len(roots) == 6
        assert len(calls) <= 3
        assert sum(calls) <= 4199

    def test_array_calls_per_cascade_rectangle(self, monkeypatch):
        # 223 roots of the 3/2 cascade: the first level cuts the box into
        # 223 slabs of one root each.  Halving every box took 61 array calls
        # for 158,605 points.
        m, n = 3, 2
        s = DelaySystem(DelayGains(-0.3, 0.2), m / n, Rational(m, n))
        rect = ComplexRect(-3.0, 1.0, -200.0, 200.0)
        calls = self._array_calls(monkeypatch)
        roots = isolate_and_refine(s, rect)
        assert len(calls) <= 2
        expected = [
            -n * (np.log(abs(z)) + 1j * (np.angle(z) + 2 * np.pi * k))
            for z in disk_roots(reduce_to_polynomial(s)).roots
            for k in range(-17, 18)
        ]
        expected = [lam for lam in expected if rect.contains(lam)]
        assert sum(r.multiplicity for r in roots) == len(expected) == 223
        for r in roots:
            for _ in range(r.multiplicity):
                e = min(expected, key=lambda e: abs(r.lam - e))
                assert abs(r.lam - e) < 1e-8
                expected.remove(e)

    def test_depth_cap_raises_at_the_first_box_depth_first(self, monkeypatch):
        # four simple roots, two at Im = pi/2 and two at Im = 3 pi/2: the
        # first level cuts four slabs, and the first and the third hold two
        # roots each and reach the cap; the lowest one comes first
        monkeypatch.setattr(contour, "_MAX_DEPTH", 1)
        s = DelaySystem(DelayGains(0.5, 0.1), 2.0, Rational(2, 1))
        with pytest.raises(MaxDepthExceeded, match=r"depth 1 reached at .*im_min=0\.3, im_max=1\.870"):
            isolate_and_refine(s, ComplexRect(-1.0, 0.5, 0.3, 0.3 + 2 * math.pi))

    def test_neighbour_root_not_taken_twice(self):
        # Newton from one box's centre converges to a root just outside it;
        # that root belongs to the neighbouring box, and this box's own root
        # (-1.4027 - 4.1544i) must still be found
        m, n = 3, 2
        s = DelaySystem(DelayGains(-0.06421001777942204, 0.05494595750728648), m / n, Rational(m, n))
        rect = ComplexRect(-3, 0.537991373047992, -10, 10)
        lams = [r.lam for r in isolate_and_refine(s, rect)]
        assert min(abs(a - b) for i, a in enumerate(lams) for b in lams[i + 1 :]) > 1e-3
        expected = [
            -n * (np.log(abs(z)) + 1j * (np.angle(z) + 2 * np.pi * k))
            for z in disk_roots(reduce_to_polynomial(s)).roots
            for k in range(-2, 3)
        ]
        expected = [lam for lam in expected if rect.contains(lam)]
        assert len(lams) == len(expected) == 11
        for lam in lams:
            assert min(abs(lam - e) for e in expected) < 1e-8


# ---------------------------------------------------------------- abscissa & caps


class TestIsolationVsPolynomialMap:
    def test_randomised_cross_validation(self):
        # isolation in the fundamental strip must reproduce the polynomial
        # root map exactly: same positions, same multiplicities
        rng = np.random.default_rng(31337)
        done = 0
        while done < 15:
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 4))
            if math.gcd(m, n) != 1:
                continue
            c = float(rng.uniform(-1.8, 1.8))
            s = equal_gain_system(c, m / n, Rational(m, n))
            p = reduce_to_polynomial(s)
            if p.degree == 0:
                continue
            zs = np.asarray(disk_roots(p).roots)
            mods = np.abs(zs)
            # skip near-degenerate configurations: clustered roots alias the
            # multiplicity certificate, near-circle roots touch contours
            pair_min = min(
                (abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1 :]),
                default=1.0,
            )
            if pair_min < 1e-3:
                continue
            period = 2 * np.pi * n
            expected = sorted(
                (float(np.mod(-n * np.angle(z), period)), float(-n * np.log(abs(z))))
                for z in zs
            )
            if min(im for im, _ in expected) < 5e-3 or max(im for im, _ in expected) > period - 5e-3:
                continue
            rect = ComplexRect(
                float(-n * np.log(mods.max())) - 0.4,
                float(-n * np.log(mods.min())) + 0.4,
                1e-4,
                period - 1e-4,
            )
            roots = isolate_and_refine(s, rect)
            got = [r.lam for r in roots for _ in range(r.multiplicity)]
            assert len(got) == len(expected), (m, n, c)
            # each root against its nearest expected one: a sort by (Im, Re)
            # swaps two roots whose Im differ by an ulp
            expected = [complex(er, ei) for ei, er in expected]
            for lam in got:
                e = min(expected, key=lambda e: abs(lam - e))
                assert abs(lam.imag - e.imag) < 1e-8 and abs(lam.real - e.real) < 1e-8, (m, n, c)
                expected.remove(e)
            done += 1


class TestSpectralAbscissa:
    def test_closed_form(self):
        assert spectral_abscissa(equal_sys(2, 1, -0.25)) == pytest.approx(np.log(0.5) / 2, abs=1e-12)

    def test_void_spectrum(self):
        assert spectral_abscissa(equal_sys(2, 1, -0.5)) == NO_ROOTS

    def test_axis_double(self):
        assert spectral_abscissa(equal_sys(1, 1, 1.0)) == pytest.approx(0.0, abs=1e-9)

    def test_requires_rational(self):
        with pytest.raises(ValueError):
            spectral_abscissa(equal_gain_system(0.2, math.pi))

    def test_line_structure(self):
        # roots lie on at most deg(P) vertical lines
        for m, n, c in [(2, 1, -0.25), (4, 1, 0.25), (3, 2, 0.9)]:
            s = equal_sys(m, n, c)
            p = reduce_to_polynomial(s)
            res = {round(-n * math.log(abs(z)), 9) for z in disk_roots(p).roots}
            assert len(res) <= p.degree


class TestMinUnstableImag:
    def test_stable_absent(self):
        assert min_unstable_imag(equal_sys(2, 1, -0.25), 50.0) is None

    def test_axis_double_at_pi(self):
        assert min_unstable_imag(equal_sys(1, 1, 1.0), 50.0) == pytest.approx(np.pi, abs=1e-9)

    def test_perturbed_delay_band(self):
        val = min_unstable_imag(equal_gain_system(-0.3, 2.05), 40.0)
        assert val is not None and 25.3 <= val <= 31.5

    def test_scan_route_matches_rational(self):
        s_rat = equal_gain_system(-0.3, 2.05)
        v_rat = min_unstable_imag(s_rat, 40.0)
        s_scan = DelaySystem(DelayGains(-0.3, -0.3), 2.05)
        v_scan = min_unstable_imag(s_scan, 40.0)
        assert v_scan == pytest.approx(v_rat, abs=1e-7)


class TestReBound:
    def test_no_roots_beyond(self):
        for m, n, c in [(2, 1, -0.25), (4, 1, 0.6), (1, 1, 1.5)]:
            s = equal_sys(m, n, c)
            reb = re_bound(s)
            p = reduce_to_polynomial(s)
            mods = [abs(z) for z in disk_roots(p).roots]
            if mods:
                assert -n * math.log(min(mods)) < reb

    def test_zero_gain(self):
        assert re_bound(equal_sys(2, 1, 0.0)) == pytest.approx(0.5)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(list(_FAMILY_GAINS)),
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(0.05, 8),
    )
    def test_matches_full_length_bisection(self, family, c1, c2, tau):
        s = DelaySystem(_FAMILY_GAINS[family](c1, c2), tau)
        es = char_expsum(s)
        if len(es.rates) <= 1:
            assert re_bound(s) == 0.5
            return
        rest = [(abs(c), a) for c, a in zip(es.coefs[:-1], es.rates[:-1])]

        def gap(x):
            vals = [math.log(c) + a * x for c, a in rest]
            top = max(vals)
            total = top + math.log(sum(math.exp(v - top) for v in vals))
            return math.log(abs(es.coefs[-1])) + es.rates[-1] * x - total

        if gap(0.0) > 0.0:
            assert re_bound(s) == 0.5
            return
        hi = 1.0
        while gap(hi) <= 0.0:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        assert re_bound(s) == hi + 0.5

"""Closed-form and numerical analysis of the family profiles, the reference
sweep, the nested-segment condition, and the two-job lower-bound curves."""

import math

import pytest

from wsrpt.analysis import (
    REFERENCE_ROWS,
    _argmax,
    _closed_ratio,
    _metrics_closed,
    basic_ratio_closed,
    lb_c1,
    lb_crossing,
    lb_curves,
    nested_ratio,
    optimize_basic,
    optimize_lb,
    optimize_nested,
    profile_metrics,
    quad,
    table1,
    worst_basic_metrics,
)

# The nested Brent search is deterministic, so the optimum can be frozen
# tightly.  PREVIOUS_RATIO is the optimum the grid-and-box search found;
# a re-freeze must not settle for less.
WORST_Y = 0.8157388615898968
WORST_V = 0.7065014281805206
TIGHT_RATIO = 1.2258825036727754
PREVIOUS_RATIO = 1.2258825036727696


class TestClosedForm:
    def test_worst_case_point(self):
        m = basic_ratio_closed(0.8157, 0.7066)
        assert m.ratio == pytest.approx(1.2259, abs=1e-3)
        assert m.L == pytest.approx(2.2993, abs=1e-3)
        assert m.W == pytest.approx(4.7521, abs=5e-3)
        # small work above the floor: L - 1 - v
        assert m.L - 1 - 0.7066 == pytest.approx(0.5920, abs=1e-3)

    def test_midpoint(self):
        m = basic_ratio_closed(0.5, 0.5)
        assert m.ratio == pytest.approx(1.0906, abs=1e-4)
        assert m.L == pytest.approx(1.5, abs=1e-12)

    def test_floor_only_ratio_increases_in_y(self):
        vals = [basic_ratio_closed(y / 20, y / 20).ratio for y in range(1, 19)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_dual_routes_agree(self):
        # closed form vs quadrature profile on a grid: same family, two routes
        for y in (0.3, 0.5307, 0.75, 0.8157):
            for v in (0.25 * y, 0.7 * y, y):
                closed = basic_ratio_closed(y, v).ratio
                quad = profile_metrics(y, v).ratio
                assert abs(closed - quad) < 1e-6


class TestProfileMetrics:
    def test_floor_only(self):
        m = profile_metrics(0.10)
        assert m.C == pytest.approx(1.1105, abs=1e-4)
        assert m.C_star == pytest.approx(1.1054, abs=1e-4)

    def test_with_block(self):
        m = profile_metrics(0.10, z=1.3270)
        assert m.C == pytest.approx(3.7031, abs=1e-4)
        assert m.C_star == pytest.approx(3.5581, abs=1e-4)
        assert m.ratio == pytest.approx(1.0407, abs=1e-4)

    def test_full_profile(self):
        m = profile_metrics(0.75, 0.7062, 0.3623)
        assert m.ratio == pytest.approx(1.2247, abs=1e-4)
        assert m.W == pytest.approx(4.5538, abs=1e-4)
        assert m.L == pytest.approx(2.3072, abs=1e-4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            profile_metrics(1.0)
        with pytest.raises(ValueError):
            profile_metrics(0.5, 0.6)
        with pytest.raises(ValueError):
            profile_metrics(0.5, -0.1)


class TestNumerics:
    @pytest.mark.parametrize("z", [0.0, 2.0])
    @pytest.mark.parametrize("y", [0.9, 0.99, 0.999, 0.9999])
    def test_quadrature_matches_closed_form_near_the_pole(self, y, z):
        # the integrands have a pole at x = 1, just past y: a fixed
        # composite rule misses the closed form by 0.49 at y = 0.9999
        m = profile_metrics(y, y, z)
        for got, want in zip((m.C, m.C_star, m.W, m.L), _metrics_closed(y, y, z)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_quadrature_of_a_smooth_integrand(self):
        assert quad(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-13)
        assert quad(math.sin, 1.0, 1.0) == 0.0

    def test_quadrature_refuses_past_its_panel_limit(self):
        # 1/sqrt(x) is integrable, but no panel at 0 meets its share of
        # the tolerance, so the refinement runs into the limit
        with pytest.raises(ValueError, match="more than 200 panels"):
            quad(lambda x: x**-0.5, 0.0, 1.0)

    def test_argmax_interior(self):
        x, fx = _argmax(math.sin, 0.0, 3.0, 1e-6)
        assert abs(x - math.pi / 2) <= 1e-6
        assert fx == math.sin(x)

    @pytest.mark.parametrize("sign, bound", [(1, 2.0), (-1, 0.0)])
    def test_argmax_on_a_bound(self, sign, bound):
        x, fx = _argmax(lambda t: sign * t, 0.0, 2.0, 1e-6)
        assert 0.0 < x < 2.0
        assert abs(x - bound) <= 1e-6
        assert fx == sign * x


class TestOptimizeBasic:
    def test_frozen_optimum(self):
        y, v, ratio = optimize_basic()
        assert y == pytest.approx(WORST_Y, abs=1e-7)
        assert v == pytest.approx(WORST_V, abs=1e-7)
        assert ratio == pytest.approx(TIGHT_RATIO, abs=1e-9)
        assert ratio >= PREVIOUS_RATIO

    def test_beats_a_coarse_grid(self):
        # the search never scans the whole domain, so a local maximum would
        # lose to some point of a coarse (y, v/y) grid
        grid = max(
            _closed_ratio(i / 41, j / 40 * i / 41, 0.0)
            for i in range(1, 41)
            for j in range(1, 41)
        )
        assert optimize_basic()[2] >= grid

    def test_matches_published_point(self):
        y, v, ratio = optimize_basic()
        assert y == pytest.approx(0.8157, abs=5e-3)
        assert v == pytest.approx(0.7066, abs=5e-3)
        assert ratio == pytest.approx(1.2259, abs=5e-4)

    def test_worst_metrics(self):
        m = worst_basic_metrics()
        assert m.C == pytest.approx(6.516734, abs=1e-5)
        assert m.C_star == pytest.approx(5.315953, abs=1e-5)
        assert m.ratio == pytest.approx(TIGHT_RATIO, abs=1e-9)
        assert m.W == pytest.approx(4.752290, abs=1e-5)
        assert m.L == pytest.approx(2.299342, abs=1e-5)
        assert m.w_over_l == pytest.approx(2.0666, abs=1e-3)

    def test_optimum_is_interior_maximum(self):
        _, _, best = optimize_basic()
        h = 1e-3
        for dy, dv in ((h, 0), (-h, 0), (0, h), (0, -h)):
            assert basic_ratio_closed(WORST_Y + dy, WORST_V + dv).ratio <= best

    def test_concave_along_v(self):
        vals = [
            basic_ratio_closed(WORST_Y, WORST_V + s * 1e-2).ratio
            for s in (-1, 0, 1)
        ]
        assert vals[0] - 2 * vals[1] + vals[2] < 0


class TestReferenceSweep:
    def test_all_rows_match(self):
        rows = table1()
        assert len(rows) == 26
        worst = max(r.max_delta() for r in rows)
        assert worst < 1e-3

    def test_sweep_covers_optimum(self):
        rows = table1()
        best = max(rows, key=lambda r: r.metrics.ratio)
        assert best.metrics.ratio == pytest.approx(TIGHT_RATIO, abs=1e-6)

    def test_reoptimized_rows_beat_a_coarse_grid(self):
        # rows whose kept candidate is the re-optimized one, not the printed
        # parameters; each must beat a coarse grid over its free parameters
        reoptimized = [
            (row, v_ref)
            for row, (y, v_ref, z_ref, *_) in zip(table1(), REFERENCE_ROWS)
            if z_ref is not None and (row.v, row.z) != (v_ref or y, z_ref)
        ]
        assert len(reoptimized) >= 3
        for row, v_ref in reoptimized:
            vs = [row.y] if v_ref is None else [k / 40 * row.y for k in range(1, 41)]
            grid = max(
                _closed_ratio(row.y, v, k / 10) for v in vs for k in range(31)
            )
            assert row.metrics.ratio >= grid

    def test_known_typo_is_quarantined(self):
        # the y=0.92 row's final column disagrees with its own W and L;
        # the five-metric gate must still pass because it skips that column
        row = next(r for r in table1() if abs(r.y - 0.92) < 1e-9)
        assert abs(row.deltas()["W_over_L"]) > 1e-2
        assert row.max_delta() < 1e-3


class TestNested:
    def test_degenerates_to_host(self):
        inner = worst_basic_metrics()
        r_s = 0.5307
        a = 1 - math.log1p(-r_s)
        limit = (1 + r_s * a) / a
        assert nested_ratio(r_s, 1e-9, inner) == pytest.approx(limit, abs=1e-6)

    def test_frozen_optimum(self):
        p_star, ratio = optimize_nested(0.5307)
        assert p_star == pytest.approx(71.686, abs=1e-2)
        assert ratio == pytest.approx(1.2258863, abs=1e-6)

    def test_improvement_threshold(self):
        inner = worst_basic_metrics()
        assert nested_ratio(0.5307, 36, inner) > inner.ratio
        assert nested_ratio(0.5307, 30, inner) < inner.ratio

    def test_parameter_validation(self):
        inner = worst_basic_metrics()
        with pytest.raises(ValueError):
            nested_ratio(0.0, 1.0, inner)
        with pytest.raises(ValueError):
            nested_ratio(0.5, -1.0, inner)


class TestLowerBound:
    def test_frozen_point(self):
        assert lb_c1(1, 2.3364) == pytest.approx(1.1038400032767022, abs=1e-9)
        assert lb_c1(1, 2.3364) == pytest.approx(1.1038, abs=1e-4)

    def test_crossing(self):
        p2, value = lb_crossing()
        assert p2 == pytest.approx(2.3364, abs=1e-3)
        assert value == pytest.approx(1.1038411, abs=1e-6)

    def test_crossing_needs_a_bracket(self):
        with pytest.raises(ValueError, match="do not bracket"):
            lb_crossing(lo=3.0, hi=6.0)

    def test_optimizer_agrees_with_crossing(self):
        p2, bound = optimize_lb()
        assert p2 == pytest.approx(2.336322, abs=1e-4)
        assert bound == pytest.approx(1.1038411, abs=1e-6)

    def test_curve_shapes(self):
        p2s = [1.2 + 0.05 * i for i in range(60)]
        curves = lb_curves(p2s)
        cross = curves.crossing_p2
        for p2, j1, j2 in zip(curves.p2, curves.finish_j1_first, curves.finish_j2_first):
            # below the crossing the J1-first guarantee is the binding one
            if p2 < cross - 1e-6:
                assert j1 < j2
            elif p2 > cross + 1e-6:
                assert j1 > j2
        # the guaranteed minimum is maximized at the crossing
        floor = [min(a, b) for a, b in zip(curves.finish_j1_first, curves.finish_j2_first)]
        assert max(floor) <= curves.crossing_value + 1e-6

from fractions import Fraction as Q

import pytest

from aemflow.cuts import CutReport, SetCrossing
from aemflow.values import DeviationFn


def shift(c):
    return DeviationFn.constant_shift(c)


class TestCutCapacity:
    def test_plain_cut_independent_of_lambda(self):
        rep = CutReport(frozenset({0}), Q(4), ())
        assert rep.capacity_at(()) == 4

    def test_two_forward_members_clamped(self):
        # two homologous edges cap 10 each, Delta x+1, lam=3: 2*min(10,4) = 8
        sc = SetCrossing((Q(10), Q(10)), 0, shift(1))
        rep = CutReport(frozenset({0}), Q(0), (sc,))
        assert rep.capacity_at((Q(3),)) == 8

    def test_forward_backward_cancellation(self):
        # one forward and one backward member with identity deviation: net 0
        sc = SetCrossing((Q(10),), 1, shift(0))
        rep = CutReport(frozenset({0}), Q(7), (sc,))
        assert rep.capacity_at((Q(2),)) == 7
        assert sc.d_R == 0

    def test_mixed_sets(self):
        a = SetCrossing((Q(4), Q(10)), 0, shift(1))
        b = SetCrossing((), 2, shift(5))
        rep = CutReport(frozenset({0, 2}), Q(3), (a, b))
        # min(4,3)+min(10,3) - 2*1 + 3 = 3+3-2+3
        assert rep.capacity_at((Q(2), Q(1))) == 7

    def test_wrong_arity_rejected(self):
        rep = CutReport(frozenset({0}), Q(1), ())
        with pytest.raises(ValueError):
            rep.capacity_at((Q(1),))


class TestSlopes:
    def test_unclamped_slope_is_d_R(self):
        sc = SetCrossing((Q(10), Q(10)), 1, shift(1))
        rep = CutReport(frozenset({0}), Q(0), (sc,))
        assert rep.right_slope(0, Q(2)) == 1  # both live: 2 - 1
        assert rep.left_slope(0, Q(2)) == 1
        assert sc.d_R == 1

    def test_clamp_transition_one_sided(self):
        # member cap 4 with Delta x+1 clamps exactly at lam=3
        sc = SetCrossing((Q(4), Q(10)), 0, shift(1))
        rep = CutReport(frozenset({0}), Q(0), (sc,))
        assert rep.left_slope(0, Q(3)) == 2
        assert rep.right_slope(0, Q(3)) == 1

    def test_affine_rate_scales_slope(self):
        sc = SetCrossing((Q(100),), 0, DeviationFn.affine(3, 0))
        rep = CutReport(frozenset({0}), Q(0), (sc,))
        assert rep.right_slope(0, Q(1)) == 3

    def test_quadratic_rate(self):
        # Delta(x) = 2x^2 + 1, derivative 4x
        sc = SetCrossing((Q(100),), 0, DeviationFn.polynomial((1, 0, 2)))
        rep = CutReport(frozenset({0}), Q(0), (sc,))
        assert rep.right_slope(0, Q(3)) == 12

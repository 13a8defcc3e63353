import math

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from netgames.strategies import (
    CATALOG_NAMES,
    DEFAULT_MATRIX,
    InfeasibleZD,
    MemoryOneStrategy,
    PERSPECTIVE_SWAP,
    Outcome,
    PayoffMatrix,
    UnknownStrategy,
    named_strategy,
    round_payoffs,
    zd_complete,
    zd_pinned_payoff,
)

from conftest import memory_one_strategies, payoff_matrices


def zd_forced_probs(p1, p4, m):
    # the two completion formulas, written out independently of the implementation
    p2 = (p1 * (m.t - m.p) - (1 + p4) * (m.t - m.r)) / (m.r - m.p)
    p3 = ((1 - p1) * (m.p - m.s) + p4 * (m.r - m.s)) / (m.r - m.p)
    return p2, p3


class TestPayoffMatrix:
    def test_default_ordering(self):
        assert DEFAULT_MATRIX.as_tuple() == (5.0, 3.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "tups", [(3, 3, 1, 0), (5, 3, 3, 0), (5, 3, 1, 1), (0, 3, 1, 5)]
    )
    def test_rejects_broken_ordering(self, tups):
        with pytest.raises(ValueError):
            PayoffMatrix(*tups)

    def test_default_matrix_is_the_standard_one_for_the_zd_pair(self):
        # brute-force search over small integer matrices: which reproduce the
        # canonical completion (0.97, 0.02) from (p1, p4) = (0.99, 0.01)?
        matches = []
        for t in range(7):
            for r in range(t):
                for p in range(r):
                    for s in range(p):
                        m = PayoffMatrix(float(t), float(r), float(p), float(s))
                        p2, p3 = zd_forced_probs(0.99, 0.01, m)
                        if abs(p2 - 0.97) < 1e-9 and abs(p3 - 0.02) < 1e-9:
                            matches.append(m.as_tuple())
        assert (5.0, 3.0, 1.0, 0.0) in matches
        # every match is an affine rescaling of the default (the formulas only
        # see payoff differences), so (5, 3, 1, 0) is the canonical choice
        for t, r, p, s in matches:
            scale = r - p
            assert abs((t - p) / scale - 2.0) < 1e-12
            assert abs((p - s) / scale - 0.5) < 1e-12


class TestOutcome:
    def test_swap_maps_cd_dc(self):
        assert PERSPECTIVE_SWAP[Outcome.CD] == Outcome.DC
        assert PERSPECTIVE_SWAP[Outcome.DC] == Outcome.CD
        assert PERSPECTIVE_SWAP[Outcome.CC] == Outcome.CC
        assert PERSPECTIVE_SWAP[Outcome.DD] == Outcome.DD

    @pytest.mark.parametrize("o", list(Outcome))
    def test_swap_is_an_involution(self, o):
        assert PERSPECTIVE_SWAP[PERSPECTIVE_SWAP[o]] == o


class TestRoundPayoffs:
    def test_known_values(self):
        m = DEFAULT_MATRIX
        assert round_payoffs(Outcome.CC, m) == (3.0, 3.0)
        assert round_payoffs(Outcome.CD, m) == (0.0, 5.0)
        assert round_payoffs(Outcome.DC, m) == (5.0, 0.0)
        assert round_payoffs(Outcome.DD, m) == (1.0, 1.0)

    @given(payoff_matrices())
    def test_perspective_consistency(self, m):
        for o in Outcome:
            mine, theirs = round_payoffs(o, m)
            theirs2, mine2 = round_payoffs(PERSPECTIVE_SWAP[o], m)
            assert mine == mine2 and theirs == theirs2


class TestZDComplete:
    def test_default_construction(self):
        zd = zd_complete(0.99, 0.01, DEFAULT_MATRIX)
        assert abs(zd.p1 - 0.99) < 1e-12
        assert abs(zd.p2 - 0.97) < 1e-12
        assert abs(zd.p3 - 0.02) < 1e-12
        assert abs(zd.p4 - 0.01) < 1e-12

    def test_tit_for_tat_corner(self):
        assert zd_complete(1.0, 0.0, DEFAULT_MATRIX).probs == (1.0, 1.0, 0.0, 0.0)

    def test_infeasible_pair_rejected(self):
        with pytest.raises(InfeasibleZD):
            zd_complete(0.0, 1.0, DEFAULT_MATRIX)

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError):
            zd_complete(1.2, 0.0)

    @given(payoff_matrices())
    def test_tit_for_tat_for_every_matrix(self, m):
        # algebraically forced to (1, 1, 0, 0); floats may leave 1e-16 dust on p2
        tft = zd_complete(1.0, 0.0, m)
        assert tft.p1 == 1.0 and tft.p4 == 0.0
        assert abs(tft.p2 - 1.0) < 1e-12
        assert abs(tft.p3) < 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        payoff_matrices(),
    )
    def test_roundtrip_reproduces_forced_probs(self, p1, p4, m):
        p2, p3 = zd_forced_probs(p1, p4, m)
        assume(1e-6 < p2 < 1 - 1e-6 and 1e-6 < p3 < 1 - 1e-6)
        zd = zd_complete(p1, p4, m)
        assert abs(zd.p2 - p2) < 1e-12
        assert abs(zd.p3 - p3) < 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        payoff_matrices(),
    )
    def test_never_returns_out_of_range(self, p1, p4, m):
        try:
            zd = zd_complete(p1, p4, m)
        except InfeasibleZD:
            return
        for v in zd.probs:
            assert 0.0 <= v <= 1.0


class TestPinnedPayoff:
    def test_default_value(self):
        assert abs(zd_pinned_payoff(0.99, 0.01, DEFAULT_MATRIX) - 2.0) < 1e-12

    def test_degenerate_pair(self):
        with pytest.raises(ValueError):
            zd_pinned_payoff(1.0, 0.0)


class TestCatalog:
    def test_named_entries(self):
        assert named_strategy("pavlov").probs == (1.0, 0.0, 0.0, 1.0)
        assert named_strategy("cooperator").probs == (1.0, 1.0, 1.0, 1.0)
        assert named_strategy("defector").probs == (0.0, 0.0, 0.0, 0.0)
        assert named_strategy("tit_for_tat").probs == (1.0, 1.0, 0.0, 0.0)
        assert named_strategy("general_cooperator").probs == (0.935, 0.229, 0.266, 0.42)

    def test_zd_default_entry(self):
        zd = named_strategy("zd_default")
        assert zd.label == "zd_default"
        assert abs(zd.p2 - 0.97) < 1e-12 and abs(zd.p3 - 0.02) < 1e-12

    def test_unknown_name(self):
        with pytest.raises(UnknownStrategy):
            named_strategy("grim")

    def test_catalog_names_sorted_and_complete(self):
        assert set(CATALOG_NAMES) == {
            "pavlov",
            "general_cooperator",
            "cooperator",
            "defector",
            "tit_for_tat",
            "zd_default",
        }

    @given(memory_one_strategies())
    def test_probs_always_valid(self, s):
        assert all(0.0 <= v <= 1.0 for v in s.probs)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            MemoryOneStrategy(1.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MemoryOneStrategy(0.5, -0.01, 0.5, 0.5)

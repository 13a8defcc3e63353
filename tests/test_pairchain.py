import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from netgames.pairchain import (
    build_chain,
    expected_payoffs,
    limit_distribution,
    monte_carlo_payoffs,
)
from netgames.strategies import (
    CATALOG,
    DEFAULT_MATRIX,
    MemoryOneStrategy,
    named_strategy,
    zd_pinned_payoff,
)

from conftest import memory_one_strategies, payoff_matrices

M = DEFAULT_MATRIX
ZD = named_strategy("zd_default")
PAVLOV = named_strategy("pavlov")
COOPERATOR = named_strategy("cooperator")
DEFECTOR = named_strategy("defector")
TFT = named_strategy("tit_for_tat")


class TestBuildChain:
    def test_cooperator_pair_locks_cc(self):
        chain = build_chain(COOPERATOR, COOPERATOR)
        assert np.allclose(chain.matrix, np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))

    def test_defector_pair_locks_dd(self):
        chain = build_chain(DEFECTOR, DEFECTOR)
        assert np.allclose(chain.matrix, np.tile([0.0, 0.0, 0.0, 1.0], (4, 1)))

    def test_zd_vs_pavlov_cc_row(self):
        chain = build_chain(ZD, PAVLOV)
        assert np.allclose(chain.matrix[0], [0.99, 0.0, 0.01, 0.0], atol=1e-12)

    @given(memory_one_strategies(), memory_one_strategies())
    def test_rows_are_distributions(self, a, b):
        m = build_chain(a, b).matrix
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
        assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)

    @given(memory_one_strategies(), memory_one_strategies())
    def test_swapping_players_transposes_perspective(self, a, b):
        # entry (o -> o') for (A, B) equals entry (swap o -> swap o') for (B, A)
        ab = build_chain(a, b).matrix
        ba = build_chain(b, a).matrix
        swap = [0, 2, 1, 3]
        for i in range(4):
            for j in range(4):
                assert abs(ab[i, j] - ba[swap[i], swap[j]]) < 1e-12


class TestLimitDistribution:
    @given(memory_one_strategies(), memory_one_strategies())
    def test_occupancy_is_a_distribution(self, a, b):
        occ = limit_distribution(build_chain(a, b))
        assert np.all(occ >= -1e-12)
        assert abs(occ.sum() - 1.0) <= 1e-10

    def test_stationary_for_ergodic_pair(self):
        chain = build_chain(ZD, PAVLOV)
        pi = limit_distribution(chain)
        assert np.all(pi >= 0.0)
        assert abs(pi.sum() - 1.0) <= 1e-10
        assert np.allclose(pi, pi @ chain.matrix, atol=1e-12)
        # solvable by hand: pi = (3, 2, 3, 3) / 11
        assert np.allclose(pi, np.array([3, 2, 3, 3]) / 11, atol=1e-12)

    def test_periodic_class_handled(self):
        # an alternator against a pure cooperator cycles CC <-> DC forever
        alternator = MemoryOneStrategy(0.0, 0.0, 1.0, 1.0, label="alternator")
        occ = limit_distribution(
            build_chain(alternator, COOPERATOR), initial=np.array([1.0, 0, 0, 0])
        )
        assert np.allclose(occ, [0.5, 0.0, 0.5, 0.0], atol=1e-12)

    @pytest.mark.parametrize("a,b", [
        # the transient solve is singular in floats
        ((0.0, 0.0, 0.0, 1e-300), (0.0, 1.0, 1.0, 0.0)),
        # the solves succeed but the occupancy sums to 0.99981
        ((1.0, 0.5581697323222211, 1e-12, 3e-16),
         (1.0, 0.24553852625628458, 1e-17, 0.6770375078933076)),
    ], ids=["singular", "not_a_distribution"])
    def test_near_decomposable_chain_fails_loudly(self, a, b):
        a, b = MemoryOneStrategy(*a), MemoryOneStrategy(*b)
        with pytest.raises(ValueError, match="too close to decomposable"):
            limit_distribution(build_chain(a, b))
        with pytest.raises(ValueError, match="too close to decomposable"):
            expected_payoffs(a, b, M)


class TestExpectedPayoffs:
    def test_zd_vs_pavlov_exact(self):
        e = expected_payoffs(ZD, PAVLOV, M)
        assert abs(e.e_ab - 27.0 / 11.0) < 1e-12
        assert abs(e.e_ba - 2.0) < 1e-9

    def test_pavlov_self_play_reaches_mutual_cooperation(self):
        e = expected_payoffs(PAVLOV, PAVLOV, M)
        assert abs(e.e_ab - 3.0) < 1e-12 and abs(e.e_ba - 3.0) < 1e-12

    def test_defector_exploits_cooperator(self):
        e = expected_payoffs(DEFECTOR, COOPERATOR, M)
        assert (e.e_ab, e.e_ba) == (5.0, 0.0)

    def test_frozen_catalog_values(self):
        # independently derived by solving each chain's closed classes by hand
        cases = {
            ("cooperator", "pavlov"): (1.5, 4.0),
            ("defector", "pavlov"): (3.0, 0.5),
            ("tit_for_tat", "pavlov"): (2.25, 2.25),
        }
        for (na, nb), (ea, eb) in cases.items():
            e = expected_payoffs(CATALOG[na], CATALOG[nb], M)
            assert abs(e.e_ab - ea) < 1e-9, (na, nb)
            assert abs(e.e_ba - eb) < 1e-9, (na, nb)

    @given(memory_one_strategies(), memory_one_strategies(), payoff_matrices())
    def test_payoffs_within_matrix_range(self, a, b, m):
        e = expected_payoffs(a, b, m)
        assert m.s - 1e-9 <= e.e_ab <= m.t + 1e-9
        assert m.s - 1e-9 <= e.e_ba <= m.t + 1e-9

    def test_extortion_pins_any_opponent_analytically(self):
        pinned = zd_pinned_payoff(0.99, 0.01, M)
        rng = np.random.default_rng(77)
        for _ in range(20):
            opp = MemoryOneStrategy(*rng.random(4), label="rand")
            e = expected_payoffs(opp, ZD, M)
            assert abs(e.e_ab - pinned) < 1e-8

    def test_zd_pins_itself_too(self):
        e = expected_payoffs(ZD, ZD, M)
        assert abs(e.e_ab - 2.0) < 1e-9 and abs(e.e_ba - 2.0) < 1e-9


class TestMonteCarlo:
    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            monte_carlo_payoffs(COOPERATOR, COOPERATOR, M, 0, seed=1)

    def test_cooperator_pair_exact(self):
        mc = monte_carlo_payoffs(COOPERATOR, COOPERATOR, M, 1000, seed=3)
        assert (mc.e_ab, mc.e_ba) == (3.0, 3.0)

    def test_defector_vs_cooperator_exact(self):
        mc = monte_carlo_payoffs(DEFECTOR, COOPERATOR, M, 1000, seed=4)
        assert (mc.e_ab, mc.e_ba) == (5.0, 0.0)

    def test_pavlov_vs_tft_matches_analytic(self):
        # deterministic pair: the split over initial states must average to 2.25
        e = expected_payoffs(PAVLOV, TFT, M)
        mc = monte_carlo_payoffs(PAVLOV, TFT, M, 1_000_000, seed=5)
        assert abs(mc.e_ab - e.e_ab) < 0.02
        assert abs(mc.e_ba - e.e_ba) < 0.02

    def test_zd_opponent_payoff_near_pinned_value(self):
        mc = monte_carlo_payoffs(PAVLOV, ZD, M, 300_000, seed=6)
        assert abs(mc.e_ab - 2.0) < 0.05


class TestPayoffTableScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pair_payoff_table.py"

    def test_check_is_identical_under_different_hash_seeds(self):
        # the Monte Carlo seeds must not depend on Python's salted str hash
        outs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, str(self.SCRIPT), "--check", "--rounds", "400"],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True, timeout=120,
            )
            outs.append(proc.stdout)
        assert "worst |simulated - analytic| at 400 rounds" in outs[0]
        assert outs[0] == outs[1]

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from netgames.pairchain import (
    expected_payoffs,
    limit_distribution,
    monte_carlo_payoffs,
    pair_transition,
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


# probabilities at float resolution, where a float solve of the chain fails
SPECIAL = (0.0, 1.0, 1e-300, 5e-324, 1.0 - 2.0**-53, 0.5, 1e-12, 1e-17, 3e-16)


def chain(a, b):
    return pair_transition(a, b)[:4, :4]


def _gauss_jordan(A, B):
    """X with A X = B for a nonsingular square A, in exact rationals."""
    n = len(A)
    M = [list(A[i]) + list(B[i]) for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def exact_occupancy(P):
    """Uniform-start time-average occupancy by linear solves in rationals (test oracle).

    The chain is the one the float entries describe: their exact values off
    the diagonal, and each diagonal 1 minus its row's other entries. Closed
    classes come from the transitive closure; transient mass reaches them by
    absorption probabilities, (I - Q) h = B, and each class's stationary
    vector solves pi (P_c - I) = 0 with sum(pi) = 1.
    """
    n = len(P)
    F = [[Fraction(x) for x in row] for row in P.tolist()]
    for i in range(n):
        F[i][i] = 1 - sum(F[i][j] for j in range(n) if j != i)
    reach = [{j for j in range(n) if j == i or F[i][j] > 0} for i in range(n)]
    for k in range(n):
        for i in range(n):
            if k in reach[i]:
                reach[i] |= reach[k]
    closed = [i for i in range(n) if all(i in reach[j] for j in reach[i])]
    classes = sorted({tuple(sorted(reach[i])) for i in closed})
    transient = [i for i in range(n) if i not in closed]
    weights = [Fraction(len(c), n) for c in classes]
    if transient:
        A = [[(i == j) - F[i][j] for j in transient] for i in transient]
        B = [[sum(F[t][j] for j in c) for c in classes] for t in transient]
        h = _gauss_jordan(A, B)
        weights = [w + sum(Fraction(1, n) * row[ci] for row in h) for ci, w in enumerate(weights)]
    out = [Fraction(0)] * n
    for w, c in zip(weights, classes):
        A = [[F[j][i] - (i == j) for j in c] for i in c]
        A[-1] = [Fraction(1)] * len(c)
        pi = _gauss_jordan(A, [[Fraction(i == len(c) - 1)] for i in range(len(c))])
        for i, row in zip(c, pi):
            out[i] = w * row[0]
    return out


@st.composite
def special_value_strategies(draw):
    """Memory-one strategies whose probabilities are often at float resolution."""
    probs = [draw(st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0))) for _ in range(4)]
    return MemoryOneStrategy(*probs, label="drawn")


class TestBuildChain:
    """The pair chain every payoff is computed from: pair_transition(a, b)[:4, :4]."""

    def test_cooperator_pair_locks_cc(self):
        assert np.allclose(chain(COOPERATOR, COOPERATOR), np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))

    def test_defector_pair_locks_dd(self):
        assert np.allclose(chain(DEFECTOR, DEFECTOR), np.tile([0.0, 0.0, 0.0, 1.0], (4, 1)))

    def test_zd_vs_pavlov_cc_row(self):
        assert np.allclose(chain(ZD, PAVLOV)[0], [0.99, 0.0, 0.01, 0.0], atol=1e-12)

    @given(memory_one_strategies(), memory_one_strategies())
    def test_rows_are_distributions(self, a, b):
        m = pair_transition(a, b)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
        assert np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(m[:, 4] == 0.0)  # no round leads back to the unplayed state

    @given(memory_one_strategies(), memory_one_strategies())
    def test_swapping_players_transposes_perspective(self, a, b):
        # entry (o -> o') for (A, B) equals entry (swap o -> swap o') for (B, A)
        ab = chain(a, b)
        ba = chain(b, a)
        swap = [0, 2, 1, 3]
        for i in range(4):
            for j in range(4):
                assert abs(ab[i, j] - ba[swap[i], swap[j]]) < 1e-12


class TestLimitDistribution:
    @given(memory_one_strategies(), memory_one_strategies())
    def test_occupancy_is_a_distribution(self, a, b):
        occ = limit_distribution(chain(a, b))
        assert np.all(occ >= 0.0)
        assert abs(occ.sum() - 1.0) <= 1e-10

    def test_stationary_for_ergodic_pair(self):
        P = chain(ZD, PAVLOV)
        pi = limit_distribution(P)
        assert np.all(pi >= 0.0)
        assert abs(pi.sum() - 1.0) <= 1e-10
        assert np.allclose(pi, pi @ P, atol=1e-12)
        # solvable by hand: pi = (3, 2, 3, 3) / 11
        assert np.allclose(pi, np.array([3, 2, 3, 3]) / 11, atol=1e-12)

    def test_periodic_class_handled(self):
        # an alternator against a pure cooperator cycles CC <-> DC forever
        alternator = MemoryOneStrategy(0.0, 0.0, 1.0, 1.0, label="alternator")
        occ = limit_distribution(chain(alternator, COOPERATOR))
        assert np.allclose(occ, [0.5, 0.0, 0.5, 0.0], atol=1e-12)

    @pytest.mark.parametrize("a,b,occ", [
        # a float solve of the transient states is singular here
        ((0.0, 0.0, 0.0, 1e-300), (0.0, 1.0, 1.0, 0.0), [0.0, 0.0, 1.0, 0.0]),
        # float solves succeed here but their occupancy sums to 0.99981
        ((1.0, 0.5581697323222211, 1e-12, 3e-16),
         (1.0, 0.24553852625628458, 1e-17, 0.6770375078933076), [1.0, 0.0, 0.0, 0.0]),
        # 1 - 1e-17 rounds to 1, so a float solve takes the leaking DC state
        # for absorbing and returns [0, 1, 0, 0]
        ((0.9564432840621094, 1.0, 1e-300, 5e-324),
         (1.0, 0.7685819370698159, 1e-17, 0.008805319342135132),
         [8.415398884184897e-301, 8.482562881113006e-286, 0.036654713870248275, 0.9633452861297517]),
    ], ids=["singular", "not_a_distribution", "leak_rounded_to_one"])
    def test_near_decomposable_is_exact(self, a, b, occ):
        P = chain(MemoryOneStrategy(*a), MemoryOneStrategy(*b))
        assert [float(x) for x in exact_occupancy(P)] == occ
        assert limit_distribution(P).tolist() == occ

    @given(special_value_strategies(), special_value_strategies())
    @settings(max_examples=300)
    def test_matches_exact_oracle(self, a, b):
        P = chain(a, b)
        assert limit_distribution(P).tolist() == [float(x) for x in exact_occupancy(P)]

    @pytest.mark.parametrize("shape", [(5, 5), (3, 3), (4, 5), (16,)])
    def test_only_the_4x4_chain(self, shape):
        with pytest.raises(ValueError, match="4x4"):
            limit_distribution(np.full(shape, 0.25))


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

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from netgames.networks import (
    EmptyGraph,
    InfeasibleDegree,
    InvalidParameter,
    Network,
    TargetUnreachable,
    _reaches,
    assortativity,
    barabasi_albert,
    complete_graph,
    degree_stats,
    fit_power_law,
    hub_order,
    read_edgelist,
    regular_random,
    rewire_to_assortativity,
    write_degree_histogram,
    write_edgelist,
)

from conftest import connected_graphs

try:
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components
except ImportError:  # scipy is a test-only extra
    connected_components = None


def rho_bruteforce(g):
    """Direct enumeration of e_jk and q over the edge list (test oracle)."""
    rem = {u: int(g.degrees[u]) - 1 for u in range(g.n)}
    two_e = 2 * g.num_edges
    e = {}
    q = {}
    for u, v in g.edges:
        for j, k in ((rem[int(u)], rem[int(v)]), (rem[int(v)], rem[int(u)])):
            e[(j, k)] = e.get((j, k), 0.0) + 1.0 / two_e
            q[j] = q.get(j, 0.0) + 1.0 / two_e
    mu = sum(j * w for j, w in q.items())
    var = sum(j * j * w for j, w in q.items()) - mu * mu
    if var <= 0:
        return 0.0
    total = 0.0
    for (j, k), w in e.items():
        total += j * k * (w - q[j] * q[k])
    # subtract the cross terms that never appear as observed (j, k) pairs
    for j, wj in q.items():
        for k, wk in q.items():
            if (j, k) not in e:
                total -= j * k * wj * wk
    return total / var


def ba_one_draw_per_pick(n, m, seed):
    """Preferential attachment with one scalar draw per pick (test oracle).

    Returns the graph and how many arriving nodes needed more than m picks.
    """
    rng = np.random.default_rng(seed)
    s = max(m, 2)
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    repeated = [node for e in edges for node in e]
    collided = 0
    for v in range(s, n):
        targets: set[int] = set()
        picks = 0
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
            picks += 1
        collided += picks > m
        chosen = sorted(targets)
        for t in chosen:
            edges.append((t, v))
        repeated.extend(chosen)
        repeated.extend([v] * m)
    return Network(n, edges), collided


def star(n):
    return Network(n, [(0, i) for i in range(1, n)])


class TestNetworkType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Network(3, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Network(3, [(0, 1), (1, 0)])

    @given(st.data())
    def test_edges_come_out_as_sorted_unique_pairs(self, data):
        n = data.draw(st.one_of(st.integers(2, 12), st.integers(2, 10**5)))
        node = st.integers(0, n - 1)
        pair = st.tuples(node, node).filter(lambda e: e[0] != e[1]).map(lambda e: tuple(sorted(e)))
        pairs = sorted(data.draw(st.sets(pair, max_size=40)))
        edges = data.draw(st.permutations(pairs))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
        assert Network(n, edges).edges.tolist() == [list(e) for e in pairs]
        if edges:
            u, v = data.draw(st.sampled_from(edges))
            with pytest.raises(ValueError, match="duplicate"):
                Network(n, [*edges, (v, u)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Network(3, [(0, 3)])

    def test_csr_neighbors(self):
        g = Network(4, [(0, 1), (0, 2), (2, 3)])
        indptr, nbr, eid = g.csr()
        assert indptr.tolist() == [0, 2, 3, 5, 6]
        assert sorted(nbr[0:2].tolist()) == [1, 2]
        assert nbr[5:6].tolist() == [2]
        # each CSR entry names the edge it came from
        for node in range(g.n):
            lo, hi = indptr[node], indptr[node + 1]
            for v, e in zip(nbr[lo:hi], eid[lo:hi]):
                assert sorted(g.edges[e].tolist()) == sorted([node, int(v)])
        assert g.degrees.tolist() == [2, 1, 2, 1]

    def test_connectivity(self):
        assert Network(3, [(0, 1), (1, 2)]).is_connected()
        assert not Network(4, [(0, 1), (2, 3)]).is_connected()
        assert Network(1, []).is_connected()


class TestRegularRandom:
    def test_all_degrees_equal(self):
        g = regular_random(1000, 8, seed=1)
        assert np.all(g.degrees == 8)
        assert g.is_connected()

    def test_k4(self):
        g = regular_random(4, 3, seed=2)
        assert sorted(map(tuple, g.edges.tolist())) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleDegree):
            regular_random(3, 3, seed=1)  # k >= n
        with pytest.raises(InfeasibleDegree):
            regular_random(5, 3, seed=1)  # odd stub count
        with pytest.raises(InfeasibleDegree):
            regular_random(5, 0, seed=1)

    def test_deterministic(self):
        a = regular_random(60, 4, seed=9)
        b = regular_random(60, 4, seed=9)
        assert np.array_equal(a.edges, b.edges)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15)
    def test_generator_contract(self, seed):
        g = regular_random(30, 4, seed=seed)
        assert np.all(g.degrees == 4)
        assert g.is_connected()


class TestBarabasiAlbert:
    def test_edge_count_m1(self):
        g = barabasi_albert(1000, 1, seed=3)
        assert g.num_edges == 999  # 2-node seed edge plus one per arrival
        assert g.is_connected()

    def test_edge_count_general(self):
        g = barabasi_albert(50, 3, seed=4)
        assert g.num_edges == 3 + (50 - 3) * 3  # complete seed on 3 nodes

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            barabasi_albert(10, 0, seed=1)
        with pytest.raises(InvalidParameter):
            barabasi_albert(10, 10, seed=1)

    def test_deterministic(self):
        a = barabasi_albert(200, 2, seed=5)
        b = barabasi_albert(200, 2, seed=5)
        assert np.array_equal(a.edges, b.edges)

    @pytest.mark.parametrize("n,m", [
        (4, 1), (4, 2), (4, 3), (6, 5), (50, 3), (200, 2), (1000, 5), (3000, 3),
        (20_000, 1), (20_000, 2),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_same_graph_as_one_draw_per_pick(self, n, m, seed):
        ref, collided = ba_one_draw_per_pick(n, m, seed)
        assert np.array_equal(barabasi_albert(n, m, seed).edges, ref.edges)
        if (n, m) == (50, 3):
            assert collided > 0  # so the block replay path ran

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15)
    def test_generator_contract(self, seed):
        g = barabasi_albert(40, 2, seed=seed)
        assert g.is_connected()
        assert g.num_edges == 1 + (40 - 2) * 2


class TestPowerLawFit:
    def test_exact_power_law_recovered(self):
        degrees = np.arange(1, 40)
        counts = 1000.0 * degrees ** -2.5
        gamma, r = fit_power_law(degrees, counts)
        assert abs(gamma - 2.5) < 1e-10
        assert abs(r + 1.0) < 1e-10  # perfectly anticorrelated in log-log

    def test_ba_exponent_in_expected_band(self):
        g = barabasi_albert(10_000, 2, seed=11)
        hist = degree_stats(g)
        gamma, r = fit_power_law(hist[:, 0], hist[:, 1])
        assert 2.0 <= gamma <= 3.5
        assert r < -0.9

    def test_needs_two_bins(self):
        with pytest.raises(InvalidParameter):
            fit_power_law([3], [10])

    def test_flat_histogram_rejected(self):
        # the path 0-1-2-3: degrees 1 and 2, two nodes each
        hist = degree_stats(Network(4, [(0, 1), (1, 2), (2, 3)]))
        assert hist.tolist() == [[1, 2], [2, 2]]
        with pytest.raises(InvalidParameter, match="log counts"):
            fit_power_law(hist[:, 0], hist[:, 1])
        with pytest.raises(InvalidParameter, match="log degrees"):
            fit_power_law([3, 3], [1, 2])


class TestAssortativity:
    def test_regular_graph_convention(self):
        g = regular_random(60, 4, seed=6)
        mix = assortativity(g)
        assert mix.rho == 0.0

    def test_star_is_maximally_disassortative(self):
        mix = assortativity(star(10))
        assert abs(mix.rho + 1.0) < 1e-12

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            assortativity(Network(3, []))

    @given(connected_graphs())
    def test_matches_bruteforce_oracle(self, g):
        assert abs(assortativity(g).rho - rho_bruteforce(g)) < 1e-9

    @given(connected_graphs())
    def test_rho_is_a_correlation(self, g):
        assert -1.0 - 1e-9 <= assortativity(g).rho <= 1.0 + 1e-9


class TestRewire:
    def test_already_at_target_returns_input(self):
        g = barabasi_albert(150, 2, seed=8)
        rho0 = assortativity(g).rho
        out, achieved = rewire_to_assortativity(g, rho0, tol=0.02, max_steps=1000, seed=1)
        assert out is g
        assert achieved == pytest.approx(rho0)

    def test_reaches_negative_target(self):
        g = barabasi_albert(1000, 2, seed=9)
        out, achieved = rewire_to_assortativity(g, -0.3, tol=0.02, max_steps=400_000, seed=2)
        assert -0.32 <= achieved <= -0.28
        assert np.array_equal(np.sort(out.degrees), np.sort(g.degrees))
        assert np.array_equal(out.degrees, g.degrees)  # degree preserved per node
        assert out.is_connected()
        assert assortativity(out).rho == achieved  # one formula, S an exact integer

    def test_star_target_unreachable(self):
        with pytest.raises(TargetUnreachable) as exc:
            rewire_to_assortativity(star(10), 0.5, tol=0.02, max_steps=2000, seed=3)
        assert exc.value.achieved_rho == pytest.approx(-1.0)

    def test_regular_sequence_unreachable_unless_zero(self):
        g = regular_random(40, 4, seed=10)
        out, achieved = rewire_to_assortativity(g, 0.0, tol=0.02, max_steps=100, seed=4)
        assert achieved == 0.0
        with pytest.raises(TargetUnreachable):
            rewire_to_assortativity(g, 0.5, tol=0.02, max_steps=100, seed=4)

    @given(connected_graphs(min_n=8, max_n=20), st.floats(min_value=-0.6, max_value=0.6))
    @settings(max_examples=20)
    def test_degrees_always_preserved(self, g, target):
        try:
            out, rho = rewire_to_assortativity(g, target, tol=0.05, max_steps=300, seed=5)
        except TargetUnreachable as exc:
            out, rho = exc.network, exc.achieved_rho
        assert np.array_equal(out.degrees, g.degrees)
        assert out.is_connected()
        assert rho == assortativity(out).rho

    def test_rho_is_a_float_on_every_path(self):
        g = barabasi_albert(200, 2, seed=8)
        out, moved = rewire_to_assortativity(g, -0.2, tol=0.02, max_steps=100_000, seed=1)
        assert out is not g
        _, kept = rewire_to_assortativity(g, assortativity(g).rho, tol=0.02, max_steps=10, seed=1)
        pinned_g = regular_random(40, 4, seed=10)
        _, pinned = rewire_to_assortativity(pinned_g, 0.0, tol=0.02, max_steps=10, seed=4)
        with pytest.raises(TargetUnreachable) as exc:
            rewire_to_assortativity(g, 0.9, tol=0.02, max_steps=2000, seed=1)
        for rho in (moved, kept, pinned, exc.value.achieved_rho):
            assert type(rho) is float

    def test_disconnected_input_rejected(self):
        g = Network(8, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (5, 7)])
        with pytest.raises(InvalidParameter, match="connected"):
            rewire_to_assortativity(g, 0.0, tol=0.02, max_steps=100, seed=6)


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


class TestReaches:
    def test_with_and_without_goal(self):
        assert _reaches(_adjacency(4, [(0, 1), (1, 2), (2, 3)]), 4, 0)
        assert not _reaches(_adjacency(4, [(0, 1), (2, 3)]), 4, 0)
        assert _reaches(_adjacency(4, [(0, 1), (2, 3)]), 4, 0, goal=1)
        assert not _reaches(_adjacency(4, [(0, 1), (2, 3)]), 4, 0, goal=2)

    @given(connected_graphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_a_reaches_b_iff_swap_keeps_graph_connected(self, g, seed):
        # the rewiring walk's lemma: on a connected graph, removing a-b and
        # c-d and adding a re-pairing leaves it connected iff a reaches b
        edges = {(int(u), int(v)) for u, v in g.edges}
        listed = sorted(edges)
        picks = np.random.default_rng(seed).integers(len(listed), size=(30, 2))
        for i, j in picks.tolist():
            (a, b), (c, d) = listed[i], listed[j]
            if len({a, b, c, d}) < 4:
                continue
            for added in (((a, c), (b, d)), ((a, d), (b, c))):
                if any(tuple(sorted(e)) in edges for e in added):
                    continue  # the walk only proposes swaps that stay simple
                swapped = (edges - {(a, b), (c, d)}) | {tuple(sorted(e)) for e in added}
                reached = _reaches(_adjacency(g.n, swapped), g.n, a, b)
                assert reached == Network(g.n, swapped).is_connected()


@st.composite
def any_graphs(draw, max_n=24):
    """Simple graph on 2..max_n nodes from random pairs, often disconnected."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    return n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})


@pytest.mark.skipif(connected_components is None, reason="needs scipy")
@given(any_graphs())
@settings(max_examples=200)
def test_reaches_agrees_with_scipy_components(graph):
    n, edges = graph
    rows, cols = zip(*edges) if edges else ((), ())
    matrix = coo_array((np.ones(len(edges)), (rows, cols)), shape=(n, n))
    count, labels = connected_components(matrix, directed=False)
    adj = _adjacency(n, edges)
    for start in range(n):
        assert _reaches(adj, n, start) == (count == 1)
        for goal in range(n):
            if goal != start:
                assert _reaches(adj, n, start, goal) == (labels[start] == labels[goal])


class TestDegreeStats:
    def test_complete_graph(self):
        g = complete_graph(4)
        assert g.mean_degree == 3.0
        assert degree_stats(g).tolist() == [[3, 4]]

    def test_regular_histogram(self):
        assert degree_stats(regular_random(100, 8, seed=12)).tolist() == [[8, 100]]

    def test_mean_degree_handshake(self):
        g = barabasi_albert(500, 1, seed=13)
        assert g.mean_degree == pytest.approx(2 * g.num_edges / g.n)

    def test_hub_order_prefers_high_degree(self):
        g = star(6)
        assert hub_order(g, seed=1)[0] == 0

    def test_hub_order_tie_break_is_seeded(self):
        g = regular_random(30, 4, seed=14)
        a = hub_order(g, seed=7)
        b = hub_order(g, seed=7)
        c = hub_order(g, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)  # different shuffle among the all-tied nodes

    @pytest.mark.parametrize("g", [
        barabasi_albert(2000, 1, seed=16), barabasi_albert(500, 3, seed=17),
        regular_random(60, 4, seed=18), star(7),
    ], ids=["ba_m1", "ba_m3", "regular", "star"])
    def test_hub_order_is_the_degree_then_tiebreak_lexsort(self, g):
        tiebreak = np.random.default_rng(19).permutation(g.n)
        assert np.array_equal(hub_order(g, seed=19), np.lexsort((tiebreak, -g.degrees)))


class TestEdgelistIO:
    def test_roundtrip(self, tmp_path):
        g = barabasi_albert(80, 2, seed=15)
        path = tmp_path / "net.edges"
        write_edgelist(g, path)
        h = read_edgelist(path)
        assert h.n == g.n and np.array_equal(h.edges, g.edges)

    def test_format_is_plain_pairs(self, tmp_path):
        g = Network(3, [(0, 1), (1, 2)])
        path = tmp_path / "net.edges"
        write_edgelist(g, path)
        assert path.read_text() == "0 1\n1 2\n"

    def test_histogram_csv(self, tmp_path):
        g = star(4)
        path = tmp_path / "hist.csv"
        write_degree_histogram(g, path)
        assert path.read_text() == "degree,count\n1,3\n3,1\n"

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamp_entropy import (
    ARTIFICIAL_STATE_LABEL,
    DegenerateComponentError,
    IllConditionedError,
    Induced,
    InvalidProbabilityError,
    LampError,
    LargestCC,
    SequenceCorpus,
    apply_conditioning,
    entropy_rate,
    fit_first_order,
    fit_lamp_em,
    induce_irreducibility,
    induced_entropy_rates,
    is_irreducible,
    lamp_plugin_estimate,
    markov_plugin_estimate,
    preprocess,
    restrict_to_largest_scc,
    stationary_distribution,
    stationary_distribution_estimate,
    strongly_connected_components,
    validate_stochastic,
)
from lamp_entropy import conditioning, markov

from test_cli import pinned_corpus_text
from test_markov import PERIODIC_TWO_CYCLE, random_ergodic


def scc_oracle(adjacency: np.ndarray):
    """Floyd-Warshall transitive closure; states share a component iff
    they reach each other."""
    n = adjacency.shape[0]
    reach = adjacency.copy()
    np.fill_diagonal(reach, True)
    for k in range(n):
        for i in range(n):
            if reach[i, k]:
                reach[i] |= reach[k]
    components = set()
    for i in range(n):
        members = frozenset(j for j in range(n) if reach[i, j] and reach[j, i])
        components.add(members)
    return components


def random_digraph_matrix(rng, n):
    """Random adjacency as a stochastic matrix; empty rows get a self-loop,
    which never changes the component structure."""
    density = rng.uniform(0.05, 0.6)
    adj = rng.random((n, n)) < density
    for i in range(n):
        if not adj[i].any():
            adj[i, i] = True
    rows = adj / adj.sum(axis=1, keepdims=True)
    return validate_stochastic(rows, [f"s{i}" for i in range(n)])


class TestStronglyConnectedComponents:
    def test_two_cycle_single_component(self):
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        part = strongly_connected_components(P)
        assert part.components == (frozenset({0, 1}),)

    def test_two_self_loops(self):
        P = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        part = strongly_connected_components(P)
        assert set(part.components) == {frozenset({0}), frozenset({1})}
        assert part.components[part.largest_id] == frozenset({0})

    def test_block_plus_feeder(self):
        # a <-> b strongly connected; c -> a only.
        P = validate_stochastic(
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], ["a", "b", "c"]
        )
        part = strongly_connected_components(P)
        assert set(part.components) == {frozenset({0, 1}), frozenset({2})}
        assert part.components[part.largest_id] == frozenset({0, 1})
        assert part.component_of[2] != part.component_of[0]

    def test_edge_threshold(self):
        P = validate_stochastic([[0.95, 0.05], [0.05, 0.95]], ["a", "b"])
        assert len(strongly_connected_components(P).components) == 1
        part = strongly_connected_components(P, edge_threshold=0.1)
        assert len(part.components) == 2

    @pytest.mark.parametrize("threshold", [-0.5, math.nan])
    def test_threshold_below_zero_or_nan_is_rejected(self, threshold):
        # Every cell of the reducible identity chain exceeds -0.5.
        P = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        with pytest.raises(ValueError, match="edge_threshold must be >= 0"):
            is_irreducible(P, threshold)
        with pytest.raises(ValueError, match="edge_threshold must be >= 0"):
            strongly_connected_components(P, edge_threshold=threshold)

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            P = random_digraph_matrix(rng, n)
            part = strongly_connected_components(P)
            assert set(part.components) == scc_oracle(P.rows > 0)
            sizes = [len(c) for c in part.components]
            best = part.components[part.largest_id]
            assert len(best) == max(sizes)
            ties = [c for c in part.components if len(c) == len(best)]
            assert min(best) == min(min(c) for c in ties)


    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([0.0, 0.0, 0.05, 0.2, 1.0]), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        ),
        st.sampled_from([0.0, 0.1, 0.3, 1.0]),
    )
    def test_matches_floyd_warshall_with_threshold(self, weights, edge_threshold):
        # Rows with no weight become self-loops; a threshold can still
        # leave states with no edge at all, including n == 1.
        raw = np.array(weights)
        empty = raw.sum(axis=1) == 0.0
        raw[empty, empty] = 1.0
        raw /= raw.sum(axis=1, keepdims=True)
        P = validate_stochastic(raw, [f"s{i}" for i in range(len(raw))])
        part = strongly_connected_components(P, edge_threshold=edge_threshold)
        assert set(part.components) == scc_oracle(P.rows > edge_threshold)
        assert is_irreducible(P, edge_threshold) == (len(part.components) == 1)
        assert sorted(v for c in part.components for v in c) == list(range(P.n))
        for cid, members in enumerate(part.components):
            assert all(part.component_of[v] == cid for v in members)
        best = part.components[part.largest_id]
        ties = [c for c in part.components if len(c) == len(best)]
        assert len(best) == max(len(c) for c in part.components)
        assert min(best) == min(min(c) for c in ties)

    def test_single_state_and_isolated_states(self):
        one = validate_stochastic([[1.0]], ["a"])
        for threshold in (0.0, 0.5, 1.0):
            part = strongly_connected_components(one, edge_threshold=threshold)
            assert part.components == (frozenset({0}),)
            assert part.largest_id == 0
        # Above the threshold only 0 -> 1 -> 0 survives; 2 and 3 are isolated.
        P = validate_stochastic(
            [[0.1, 0.9, 0.0, 0.0], [0.8, 0.2, 0.0, 0.0], [0.25] * 4, [0.25] * 4],
            list("abcd"),
        )
        part = strongly_connected_components(P, edge_threshold=0.5)
        assert set(part.components) == {frozenset({0, 1}), frozenset({2}), frozenset({3})}
        assert part.components[part.largest_id] == frozenset({0, 1})


class TestRestrictToLargestScc:
    def test_irreducible_unchanged(self):
        rng = np.random.default_rng(8)
        P = random_ergodic(4, rng)
        restricted, kept, excluded = restrict_to_largest_scc(P)
        assert excluded == 0
        assert kept == list(P.labels)
        assert np.array_equal(restricted.rows, P.rows)

    def test_drops_sink_state(self):
        # a <-> b strongly connected; d is an absorbing sink fed by a.
        P = validate_stochastic(
            [[0.0, 0.8, 0.2], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], ["a", "b", "d"]
        )
        restricted, kept, excluded = restrict_to_largest_scc(P)
        assert kept == ["a", "b"]
        assert excluded == 1
        # row a had 0.2 mass on the dropped state; renormalised to [0, 1].
        assert np.allclose(restricted.rows, [[0.0, 1.0], [1.0, 0.0]])

    def test_tie_break_prefers_first_state(self):
        P = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        restricted, kept, excluded = restrict_to_largest_scc(P)
        assert kept == ["a"]
        assert excluded == 1
        assert restricted.rows.tolist() == [[1.0]]

    def test_degenerate_singleton(self):
        P = validate_stochastic([[0.0, 1.0], [0.0, 1.0]], ["a", "b"])
        # components {a} and {b}; tie-break keeps a, which has no self-loop.
        with pytest.raises(DegenerateComponentError):
            restrict_to_largest_scc(P)


class TestInduceIrreducibility:
    def test_disconnected_pair(self):
        p = 2.0**-15
        P = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        out = induce_irreducibility(P, p)
        assert out.n == 3
        assert is_irreducible(out)
        # symmetric two-block chain: artificial mass is p/(1+p) exactly.
        pi = stationary_distribution(out)
        assert abs(pi.probs[2] - p / (1 + p)) < 1e-12
        assert abs(pi.probs[2] - p) < p * 1e-3

    def test_original_block_scaled_exactly(self):
        rng = np.random.default_rng(14)
        P = random_ergodic(3, rng)
        p = 2.0**-15
        out = induce_irreducibility(P, p)
        assert np.array_equal(out.rows[:3, :3], (1.0 - p) * P.rows)
        assert np.allclose(out.rows[:3, 3], p)
        assert np.allclose(out.rows[3, :3], 1 / 3)
        assert out.rows[3, 3] == 0.0
        assert out.labels[3] == ARTIFICIAL_STATE_LABEL

    def test_half_probability_single_state(self):
        P = validate_stochastic([[1.0]], ["a"])
        out = induce_irreducibility(P, 0.5)
        assert np.array_equal(out.rows, [[0.5, 0.5], [1.0, 0.0]])
        pi = stationary_distribution(out)
        assert abs(entropy_rate(out, pi) - 2 / 3) < 1e-9

    def test_aperiodic_and_irreducible(self):
        # strict spectral gap of the conditioned chain certifies both.
        P = validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["a", "b"])
        out = induce_irreducibility(P, 2.0**-10)
        eigvals = np.sort(np.abs(np.linalg.eigvals(out.rows)))
        assert eigvals[-1] == pytest.approx(1.0, abs=1e-12)
        assert eigvals[-2] < 1.0 - 1e-8

    def test_small_weight_preserves_entropy_rate(self):
        rng = np.random.default_rng(15)
        P = random_ergodic(3, rng)
        base = entropy_rate(P, stationary_distribution(P))
        out = induce_irreducibility(P, 2.0**-15)
        conditioned = entropy_rate(out, stationary_distribution(out))
        assert abs(conditioned - base) < 1e-3

    def test_invalid_probability(self):
        P = validate_stochastic([[1.0]], ["a"])
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidProbabilityError):
                induce_irreducibility(P, p)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_strategy_checks_its_weight_when_made(self, p):
        with pytest.raises(InvalidProbabilityError):
            Induced(p)

    def test_label_collision_is_avoided(self):
        P = validate_stochastic([[1.0]], [ARTIFICIAL_STATE_LABEL])
        out = induce_irreducibility(P, 0.25)
        assert len(set(out.labels)) == 2


class TestApplyConditioning:
    def test_largest_cc_report(self):
        P = validate_stochastic(
            [[0.0, 0.8, 0.2], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], ["a", "b", "d"]
        )
        conditioned, report = apply_conditioning(P, LargestCC())
        assert conditioned.n == 2
        assert report == {
            "method": "largest_scc",
            "excluded": 1,
            "p_artificial": None,
            "n_before": 3,
            "n_after": 2,
        }

    def test_induced_report(self):
        P = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        conditioned, report = apply_conditioning(P, Induced(2.0**-15))
        assert conditioned.n == 3
        assert report["method"] == "induced"
        assert report["p_artificial"] == 2.0**-15
        assert report["excluded"] == 0
        assert (report["n_before"], report["n_after"]) == (2, 3)

    def test_unknown_strategy(self):
        P = validate_stochastic([[1.0]], ["a"])
        with pytest.raises(TypeError, match="unknown conditioning strategy"):
            apply_conditioning(P, "induced")


def _oracle_induced_law(rows, i: int):
    """The induced chain at p = 2**-i and its stationary law, in mpmath.

    Rows are renormalised exactly in mpmath; the (n+1)-state chain is
    built and its stationary law solved directly, independently of the
    block formulas under test. Call inside ``mpmath.workdps(60)``.
    """
    P = []
    for row in np.asarray(rows, dtype=float).tolist():
        entries = [mpmath.mpf(x) for x in row]
        total = mpmath.fsum(entries)
        P.append([x / total for x in entries])
    n = len(P)
    p = mpmath.mpf(2) ** -i
    Q = [[(1 - p) * x for x in row] + [p] for row in P]
    Q.append([mpmath.mpf(1) / n] * n + [mpmath.mpf(0)])
    size = n + 1
    # pi (Q - I) = 0 transposed, with the last equation sum(pi) = 1.
    a = mpmath.matrix(size, size)
    for r in range(size):
        for j in range(size):
            a[j, r] = Q[r][j] - (1 if r == j else 0)
        a[size - 1, r] = 1
    b = mpmath.matrix(size, 1)
    b[size - 1] = 1
    return Q, mpmath.lu_solve(a, b)


def oracle_induced_rate(rows, i: int) -> float:
    """Entropy rate of the induced chain at p = 2**-i in 60-digit arithmetic."""
    with mpmath.workdps(60):
        Q, pi = _oracle_induced_law(rows, i)
        return float(
            -mpmath.fsum(
                pi[r] * mpmath.fsum(q * mpmath.log(q, 2) for q in Q[r] if q > 0)
                for r in range(len(Q))
            )
        )


def oracle_induced_law_entropy(rows, i: int) -> float:
    """Entropy of the induced chain's stationary law at p = 2**-i, 60 digits."""
    with mpmath.workdps(60):
        _, pi = _oracle_induced_law(rows, i)
        return float(-mpmath.fsum(x * mpmath.log(x, 2) for x in pi if x > 0))


def oracle_stationary(P):
    """``sum_C a_C·π_C`` over the closed classes that ``scc_oracle`` finds.

    ``π_C`` is the least-squares solution of ``[P_CC^T - I; 1]·π = [0;
    1]``; ``a_C``, the probability that the chain started uniformly ends
    in ``C``, comes from one solve with the fundamental matrix
    ``(I - P_TT)^-1`` over the remaining (transient) states.
    """
    rows, n = P.rows, P.n
    closed = []
    for component in scc_oracle(rows > 0):
        members = sorted(component)
        outside = [j for j in range(n) if j not in component]
        if not (rows[np.ix_(members, outside)] > 0).any():
            closed.append(members)
    transient = sorted(set(range(n)) - {j for members in closed for j in members})
    leak = np.array([rows[np.ix_(transient, members)].sum(axis=1) for members in closed]).T
    absorbed = np.linalg.solve(np.eye(len(transient)) - rows[np.ix_(transient, transient)], leak)
    x = np.zeros(n)
    for k, members in enumerate(closed):
        size = len(members)
        a = np.vstack([rows[np.ix_(members, members)].T - np.eye(size), np.ones(size)])
        pi = np.linalg.lstsq(a, np.eye(size + 1)[-1], rcond=None)[0]
        x[members] = (size + absorbed[:, k].sum()) / n * pi
    return x


def conditioned_rate(matrix, p):
    conditioned, _ = apply_conditioning(matrix, Induced(p))
    return entropy_rate(conditioned, stationary_distribution(conditioned))


def two_closed_classes():
    """24 states, shuffled: a 14-state transient block that leaks into a
    6-state and a 4-state closed class."""
    rng = np.random.default_rng(2024)
    rows = np.zeros((24, 24))
    rows[:14, :14] = rng.random((14, 14))
    rows[:14, 14:] = 0.02 * rng.random((14, 10))
    rows[14:20, 14:20] = rng.random((6, 6))
    rows[20:, 20:] = rng.random((4, 4))
    perm = rng.permutation(24)
    rows = rows[np.ix_(perm, perm)]
    return validate_stochastic(rows / rows.sum(axis=1, keepdims=True), [f"s{i}" for i in range(24)])


def nearly_decomposable():
    """A 14-state transient block whose rows each leak 1e-13 into a closed
    6-state block."""
    rng = np.random.default_rng(7)
    rows = np.zeros((20, 20))
    block = rng.random((14, 14))
    rows[:14, :14] = (1 - 1e-13) * block / block.sum(axis=1, keepdims=True)
    rows[:14, 14:] = 1e-13 / 6
    rows[14:, 14:] = rng.random((6, 6))
    return validate_stochastic(rows / rows.sum(axis=1, keepdims=True), [f"s{i}" for i in range(20)])


def two_closed_classes_2100():
    """2,100 sparse states, shuffled: 100 transient states, each moving
    within its block with probability 1/2, into a 1,200-state closed class
    with 3/8 and into an 800-state one with 1/8, so that a chain started
    there ends in the larger class with probability 3/4."""
    rng = np.random.default_rng(2100)
    sizes = {"T": 100, "A": 1200, "B": 800}
    start = {"T": 0, "A": 100, "B": 1300}
    rows = np.zeros((2100, 2100))

    def spread(i, block, weight, count):
        for j in rng.integers(0, sizes[block], size=count):
            rows[i, start[block] + j] += weight / count

    for block in ("A", "B"):
        for k in range(sizes[block]):  # a cycle through the class makes it irreducible
            i = start[block] + k
            rows[i, start[block] + (k + 1) % sizes[block]] = 0.5
            spread(i, block, 0.5, 4)
    for i in range(sizes["T"]):
        spread(i, "T", 0.5, 4)
        spread(i, "A", 0.375, 3)
        spread(i, "B", 0.125, 1)
    perm = rng.permutation(2100)
    P = validate_stochastic(rows[np.ix_(perm, perm)], [f"s{i}" for i in range(2100)])
    where = np.argsort(perm)
    return P, {block: where[start[block] : start[block] + size] for block, size in sizes.items()}


def random_reducible_chain(rng):
    """One to three closed classes, some of them cycles (periodic), and up
    to four transient states, each moving into a class with probability
    at least 1/5; shuffled."""
    sizes = rng.integers(1, 6, size=rng.integers(1, 4))
    t = int(rng.integers(0, 5))
    n = t + int(sizes.sum())
    rows = np.zeros((n, n))
    start = t
    for size in sizes:
        block = slice(start, start + size)
        cycle = np.roll(np.eye(size), 1, axis=1)
        if rng.random() < 0.3:
            rows[block, block] = cycle
        else:
            sparse = rng.random((size, size)) * (rng.random((size, size)) < 0.6)
            rows[block, block] = 0.2 * cycle + sparse
        start += size
    for i in range(t):
        rows[i] = rng.random(n) * (rng.random(n) < 0.5)
        rows[i] /= rows[i].sum() or 1.0
        rows[i, rng.integers(t, n)] += 0.25
    perm = rng.permutation(n)
    rows = rows[np.ix_(perm, perm)]
    return validate_stochastic(rows / rows.sum(axis=1, keepdims=True), [f"s{i}" for i in range(n)])


def coupled_blocks(coupling):
    """One closed class of two 3-state blocks joined by edges of
    ``coupling``: the series in p converges only for p below about
    ``coupling / 2`` (2e-6 at 1e-6, 0.0055 at 0.01)."""
    rng = np.random.default_rng(11)
    rows = np.zeros((6, 6))
    rows[:3, :3] = rng.random((3, 3)) + 0.1
    rows[3:, 3:] = rng.random((3, 3)) + 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    rows[0, 3] = rows[3, 0] = coupling
    return validate_stochastic(rows / rows.sum(axis=1, keepdims=True), list("abcdef"))


def nearly_decomposable_class(coupling):
    """One closed class of two dense 150-state blocks, each row moving
    into the other block with probability ``coupling``. Unshuffled, so
    that each block is one half of ``I - P + 1v``: the worst case for a
    block inverse that does not pivot across its halves."""
    rng = np.random.default_rng(300)
    rows = np.empty((300, 300))
    for own, other in ((slice(0, 150), slice(150, 300)), (slice(150, 300), slice(0, 150))):
        block = rng.random((150, 150))
        rows[own, own] = (1 - coupling) * block / block.sum(axis=1, keepdims=True)
        rows[own, other] = coupling / 150
    return validate_stochastic(rows, [f"s{i}" for i in range(300)])


@pytest.fixture
def block_solves(monkeypatch):
    """The ``p`` of every rate that ``induced_entropy_rates`` takes from the block solve."""
    seen = []
    rate = markov._Blocks.rate

    def spy(blocks, p):
        seen.append(p)
        return rate(blocks, p)

    monkeypatch.setattr(markov._Blocks, "rate", spy)
    return seen


@pytest.fixture
def structure_scans(monkeypatch):
    """How many times ``markov._tarjan`` and ``markov._edges`` have run,
    called from any module that holds them."""
    calls = {"_tarjan": 0, "_edges": 0}
    for name in calls:

        def spy(*args, name=name, original=getattr(markov, name)):
            calls[name] += 1
            return original(*args)

        for module in (markov, conditioning):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    return calls


class TestStructureFoundOnce:
    """A matrix finds its edges, row entropies and condensation once."""

    def test_laws_and_rates_of_one_matrix_scan_it_once(self, structure_scans):
        P = two_closed_classes()
        pi = stationary_distribution(P)
        entropy_rate(P, pi)
        stationary_distribution_estimate(P, Induced())
        Induced()._rate(P)
        induced_entropy_rates(P, [2.0**-i for i in range(1, 26)])
        assert structure_scans == {"_tarjan": 1, "_edges": 1}

    def test_largest_cc_scans_each_matrix_once(self, structure_scans):
        # One scan of P, and one of each restriction the two calls build.
        P = two_closed_classes()
        LargestCC()._rate(P)
        stationary_distribution_estimate(P, LargestCC())
        assert structure_scans == {"_tarjan": 3, "_edges": 3}

    def test_nonzero_threshold_scans_again(self, structure_scans):
        P = two_closed_classes()
        assert not is_irreducible(P)
        assert is_irreducible(P, 0.0) is False
        assert structure_scans == {"_tarjan": 1, "_edges": 1}
        strongly_connected_components(P, 0.5)
        assert structure_scans == {"_tarjan": 2, "_edges": 2}

    def test_entropy_rate_runs_no_tarjan(self, structure_scans):
        pi = stationary_distribution(two_closed_classes())
        structure_scans.update(_tarjan=0, _edges=0)
        entropy_rate(two_closed_classes(), pi)  # a fresh matrix
        assert structure_scans == {"_tarjan": 0, "_edges": 1}


def pinned_corpus():
    lines = pinned_corpus_text().splitlines()
    cleaned, _ = preprocess(SequenceCorpus.from_sequences([line.split() for line in lines]), 3)
    return cleaned


class TestStationaryDistribution:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
    def test_matches_absorption_oracle_on_random_chains(self, seed, n):
        P = random_digraph_matrix(np.random.default_rng(seed), n)
        pi = stationary_distribution(P).probs
        assert np.abs(pi - oracle_stationary(P)).max() < 1e-10

    def test_matches_absorption_oracle_on_fixed_chains(self):
        rng = np.random.default_rng(5)
        chains = [random_ergodic(n, rng) for n in (2, 3, 7)]
        chains += [PERIODIC_TWO_CYCLE, two_closed_classes()]
        for P in chains:
            pi = stationary_distribution(P).probs
            assert np.abs(pi - oracle_stationary(P)).max() < 1e-12

    def test_two_closed_classes_beyond_2000_states(self):
        P, blocks = two_closed_classes_2100()
        pi = stationary_distribution(P).probs
        assert np.abs(pi @ P.rows - pi).sum() < 1e-12
        assert pi[blocks["T"]].max() == 0.0
        masses = {block: pi[states].sum() for block, states in blocks.items()}
        assert abs(masses["A"] - (1200 + 100 * 0.75) / 2100) < 1e-12
        assert abs(masses["B"] - (800 + 100 * 0.25) / 2100) < 1e-12

    def test_nearly_decomposable_chain_gives_the_closed_block(self):
        # Its transient block leaks 1e-13 a step: one closed class takes
        # all the mass, with no ill-conditioned transient solve.
        P = nearly_decomposable()
        pi = stationary_distribution(P).probs
        assert np.abs(pi @ P.rows - pi).sum() <= 1e-12
        assert pi[:14].max() == 0.0
        closed = validate_stochastic(P.rows[14:, 14:], P.labels[14:])
        assert np.abs(pi[14:] - stationary_distribution(closed).probs).max() < 1e-15

    def test_slowly_leaking_block_between_two_classes_raises(self):
        # The residual stays ~1e-16 here; only the mass identity notices
        # that the split between the classes is lost.
        P = nearly_decomposable()
        rows = P.rows.copy()
        rows[14:, 14:] = 0.0
        rows[14:17, 14:17] = rows[17:, 17:] = 1.0 / 3.0
        P = validate_stochastic(rows, P.labels)
        with pytest.raises(IllConditionedError):
            stationary_distribution(P)

    def test_induced_stationary_entropy_matches_oracle(self):
        P = two_closed_classes()
        for i in (25, 40, 50, 54, 60):
            bits = stationary_distribution_estimate(P, Induced(2.0**-i)).bits_per_symbol
            assert abs(bits - oracle_induced_law_entropy(P.rows, i)) < 1e-12, i


class TestBlockRates:
    """``markov._Blocks.rates``: the certified ``x(p)·h`` behind every induced rate."""

    TRANSIENT_INTO_ONE_CLASS = [[0.2, 0.5, 0.3], [0.0, 0.1, 0.9], [0.0, 0.6, 0.4]]

    def test_p_zero_puts_all_the_mass_on_the_one_closed_class(self, block_solves):
        P = validate_stochastic(self.TRANSIENT_INTO_ONE_CLASS, list("abc"))
        blocks = markov._Blocks(P)
        expected = blocks.stationary(0.0) @ P.h
        [one] = blocks.rates([0.0])
        zero, _ = blocks.rates([0.0, 2.0**-20])
        assert block_solves == [0.0]  # the pair is summed from the series
        for xh in (one, zero):
            assert abs(xh - expected) <= 1e-15

    @pytest.mark.parametrize("p_values", [[2.0**-50], [2.0**-20, 2.0**-50]], ids=["one", "many"])
    def test_point_failing_the_certificate_raises(self, p_values):
        with pytest.raises(IllConditionedError, match="p=8.881784197001252e-16"):
            markov._Blocks(nearly_decomposable()).rates(p_values)


class TestInducedEntropyRates:
    def test_two_closed_classes_match_oracle(self, block_solves):
        P = two_closed_classes()
        exponents = [1, 10, 25, 40, 50, 54, 60]
        rates = induced_entropy_rates(P, [2.0**-i for i in exponents])
        for i, rate in zip(exponents, rates):
            assert abs(rate - oracle_induced_rate(P.rows, i)) < 1e-12, i
        assert block_solves == []  # every point certified from the series

    def test_periodic_cycle_matches_oracle(self, block_solves):
        P = validate_stochastic(np.roll(np.eye(6), 1, axis=1), list("abcdef"))
        exponents = [1, 5, 20, 50]
        rates = induced_entropy_rates(P, [2.0**-i for i in exponents])
        for i, rate in zip(exponents, rates):
            assert abs(rate - oracle_induced_rate(P.rows, i)) < 1e-12, i
        assert block_solves == []

    def test_single_state_is_binary_entropy(self):
        P = validate_stochastic([[1.0]], ["a"])
        exponents = [1, 10, 50, 54, 80, 1074]
        rates = induced_entropy_rates(P, [2.0**-i for i in exponents])
        for i, rate in zip(exponents, rates):
            with mpmath.workdps(60):
                p = mpmath.mpf(2) ** -i
                h_b = -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)
                expected = float(h_b / (1 + p))
            # 2**-1074 makes the rate subnormal: there, allow a few ulps.
            assert math.isclose(rate, expected, rel_tol=1e-14, abs_tol=1e-322), i

    def test_nearly_decomposable_chain_raises_instead_of_guessing(self):
        P = nearly_decomposable()
        assert abs(induced_entropy_rates(P, [2.0**-20])[0] - oracle_induced_rate(P.rows, 20)) < 1e-9
        with pytest.raises(IllConditionedError):
            induced_entropy_rates(P, [2.0**-50])
        assert issubclass(IllConditionedError, LampError)

    def test_matches_conditioned_chain_on_fitted_matrices(self):
        corpus = pinned_corpus()
        markov = fit_first_order(corpus, smoothing=0.0)
        lamp = fit_lamp_em(corpus, 2, max_iter=15, tol=0.0).model.matrix
        p_values = [2.0**-i for i in range(1, 26)]
        for matrix in (markov, lamp):
            rates = induced_entropy_rates(matrix, p_values)
            for p, rate in zip(p_values, rates):
                assert abs(rate - conditioned_rate(matrix, p)) < 1e-12, p

    def test_matches_conditioned_chain_on_random_reducible_chains(self):
        rng = np.random.default_rng(91)
        for _ in range(60):
            P = random_digraph_matrix(rng, int(rng.integers(1, 9)))
            for i in (1, 8, 15):
                rate = induced_entropy_rates(P, [2.0**-i])[0]
                assert abs(rate - conditioned_rate(P, 2.0**-i)) < 1e-11

    def test_estimators_report_the_induced_conditioning(self):
        corpus = pinned_corpus()
        strategy = Induced(2.0**-15)
        markov = fit_first_order(corpus, smoothing=0.0)
        lamp = fit_lamp_em(corpus, 2, max_iter=15, tol=0.0).model.matrix
        for report, matrix in (
            (markov_plugin_estimate(corpus, strategy), markov),
            (lamp_plugin_estimate(corpus, 2, strategy, max_iter=15, tol=0.0), lamp),
        ):
            _, expected = apply_conditioning(matrix, strategy)
            assert report.conditioning == expected
            assert abs(report.bits_per_symbol - conditioned_rate(matrix, 2.0**-15)) < 1e-12
        report = stationary_distribution_estimate(markov, strategy)
        conditioned, expected = apply_conditioning(markov, strategy)
        assert report.conditioning == expected
        expected_bits = stationary_distribution_estimate(conditioned).bits_per_symbol
        assert abs(report.bits_per_symbol - expected_bits) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_series_matches_block_solves_on_reducible_chains(self, seed):
        P = random_reducible_chain(np.random.default_rng(seed))
        p_values = [2.0**-i for i in range(1, 61)]
        rates = induced_entropy_rates(P, p_values)
        for p, rate in zip(p_values, rates):
            assert abs(rate - induced_entropy_rates(P, [p])[0]) <= 1e-12, p

    @pytest.mark.parametrize(
        "coupling, exponents, beyond",
        [(1e-6, [1, 2, 3, 10], 4), (1e-2, list(range(1, 13)), 7)],
        ids=["coupling-1e-6", "coupling-1e-2"],
    )
    def test_points_beyond_the_radius_take_the_block_solve(
        self, coupling, exponents, beyond, block_solves, monkeypatch
    ):
        P = coupled_blocks(coupling)
        series = markov._Blocks.series
        terms = []
        monkeypatch.setattr(
            markov._Blocks, "series", lambda self, p: terms.extend(series(self, p)) or terms
        )
        p_values = [2.0**-i for i in exponents]
        rates = induced_entropy_rates(P, p_values)
        # The first `beyond` points lie outside the radius; the rest are summed.
        assert block_solves == p_values[:beyond]
        for i, rate in zip(exponents, rates):
            assert abs(rate - oracle_induced_rate(P.rows, i)) < 1e-12, i
        if beyond == len(exponents):  # the terms stop growing at once, not at the cap
            [(_, _, coefficients)] = terms
            assert len(coefficients) < markov._SERIES_MAX_TERMS

    def test_points_the_series_cannot_certify_are_bit_identical_to_block_solves(
        self, block_solves, monkeypatch
    ):
        monkeypatch.setattr(markov, "_SERIES_MAX_TERMS", 1)
        P = two_closed_classes()
        p_values = [2.0**-i for i in range(1, 26)]
        rates = induced_entropy_rates(P, p_values)
        assert block_solves == p_values
        block_solves.clear()
        assert rates == [induced_entropy_rates(P, [p])[0] for p in p_values]

    def test_series_matches_block_solves_on_classes_above_the_base_size(self, block_solves):
        P, _ = two_closed_classes_2100()
        assert sorted(members.size for members, _, _ in markov._Blocks(P).closed) == [800, 1200]
        p_values = [2.0**-i for i in range(1, 26)]
        rates = induced_entropy_rates(P, p_values)
        assert block_solves == []
        for p, rate in zip(p_values, rates):
            assert abs(rate - induced_entropy_rates(P, [p])[0]) <= 1e-12, p

    # Recorded with LAPACK's inverse of the whole class. The residual
    # floor grows as one over the coupling: 2e-14 at 1e-1, 2e-12 at 1e-3.
    @pytest.mark.parametrize(
        "coupling, certified",
        [(1e-1, list(range(3, 26))), (1e-3, []), (1e-6, [])],
        ids=["coupling-1e-1", "coupling-1e-3", "coupling-1e-6"],
    )
    def test_nearly_decomposable_class_certifies_the_same_points(
        self, coupling, certified, block_solves
    ):
        P = nearly_decomposable_class(coupling)
        exponents = range(1, 26)
        rates = induced_entropy_rates(P, [2.0**-i for i in exponents])
        assert [i for i in exponents if 2.0**-i not in block_solves] == certified
        block_solves.clear()
        for i, rate in zip(exponents, rates):
            assert abs(rate - induced_entropy_rates(P, [2.0**-i])[0]) <= 1e-12, i

    def test_singular_sub_block_sends_every_point_to_the_block_solve(
        self, block_solves, monkeypatch
    ):
        P = nearly_decomposable_class(1e-3)
        inv, sizes = np.linalg.inv, []

        def singular_below_the_class(a):
            sizes.append(a.shape[0])
            if a.shape[0] < P.n:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", singular_below_the_class)
        p_values = [2.0**-i for i in range(1, 26)]
        rates = induced_entropy_rates(P, p_values)
        assert sizes and max(sizes) < P.n
        assert block_solves == p_values
        block_solves.clear()
        assert rates == [induced_entropy_rates(P, [p])[0] for p in p_values]

    def test_series_holds_at_most_two_dense_blocks_beyond_the_chain(self):
        rng = np.random.default_rng(1500)
        n, t = 1500, 10
        rows = np.zeros((n, n))
        for i in range(n):
            rows[i, rng.integers(t, n, size=20)] = rng.random(20)
        rows[t:, t:] += 0.5 * np.roll(np.eye(n - t), 1, axis=1)  # one closed class
        P = validate_stochastic(rows / rows.sum(axis=1, keepdims=True), [f"s{i}" for i in range(n)])
        del rows
        tracemalloc.start()
        try:
            induced_entropy_rates(P, [2.0**-i for i in range(1, 26)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # P_CC and I - P_CC + 1v, inverted in place: 2.3 |C|^2 floats
        # (3.04 with a separate inverse).
        assert peak <= 3.1 * (n - t) ** 2 * 8

    def test_rejects_probabilities_outside_the_open_interval(self):
        P = validate_stochastic([[0.5, 0.5], [1.0, 0.0]], ["a", "b"])
        for p in (0.0, 1.0, -0.5, float("nan"), 2.0**-1075):
            with pytest.raises(InvalidProbabilityError):
                induced_entropy_rates(P, [0.5, p])
        assert induced_entropy_rates(P, []) == []

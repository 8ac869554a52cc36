import codecs
import gc
import sys
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from lamp_entropy import (
    EmptyCorpusError,
    EmptySequenceError,
    EstimatorMethod,
    Induced,
    InvalidProbabilityError,
    KernelDistribution,
    LampModel,
    LargestCC,
    MalformedFileError,
    NegativeEntryError,
    NotADistributionError,
    NotIrreducibleError,
    RowSumError,
    SequenceCorpus,
    SweepResult,
    apply_conditioning,
    detect_plateau,
    entropy_rate,
    fit_first_order,
    lamp_plugin_estimate,
    markov_plugin_estimate,
    minmax_normalize,
    path_level_estimate,
    restrict_to_largest_scc,
    sequence_level_estimate,
    shannon_entropy,
    simulate_lamp,
    simulate_markov,
    stationary_distribution,
    stationary_distribution_estimate,
    sweep_p_artificial,
    validate_stochastic,
    write_sweep_csv,
)
from lamp_entropy.estimators import DEFAULT_SWEEP_EXPONENTS, read_sweep_csv

from test_markov import random_ergodic

# H([2/3, 1/3]) = log2(3) - 2/3, by direct evaluation.
H_TWO_THIRDS = 0.9182958340544896


def two_component_corpus(steps=50_000):
    """Two disconnected ergodic 3-state blocks with zero diagonals."""
    a = validate_stochastic(
        [[0.0, 0.7, 0.3], [0.4, 0.0, 0.6], [0.5, 0.5, 0.0]], ["a", "b", "c"]
    )
    b = validate_stochastic(
        [[0.0, 0.2, 0.8], [0.9, 0.0, 0.1], [0.3, 0.7, 0.0]], ["d", "e", "f"]
    )
    return SequenceCorpus.from_sequences(
        [simulate_markov(a, steps, seed=1), simulate_markov(b, steps, seed=2)]
    )


class TestShannonEntropy:
    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == 1.0

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_two_thirds(self):
        assert abs(shannon_entropy([2 / 3, 1 / 3]) - H_TWO_THIRDS) < 1e-12

    def test_rejects_non_distributions(self):
        with pytest.raises(NotADistributionError):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(NotADistributionError, match="non-empty 1-D"):
            shannon_entropy([])
        with pytest.raises(NotADistributionError, match="non-empty 1-D"):
            shannon_entropy([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(NotADistributionError):
            shannon_entropy([1.5, -0.5])

    @pytest.mark.parametrize("dist", [[float("nan"), 1.0], [float("inf"), 0.0]])
    def test_rejects_non_finite(self, dist):
        with pytest.raises(InvalidProbabilityError):
            shannon_entropy(dist)

    def test_shares_the_matrix_validation(self):
        # One check serves vectors and matrices: its errors are the
        # distribution errors that callers of shannon_entropy catch.
        assert issubclass(NegativeEntryError, NotADistributionError)
        assert issubclass(RowSumError, NotADistributionError)
        with pytest.raises(NegativeEntryError, match="^probabilities must be non-negative$"):
            shannon_entropy([1.5, -0.5])
        with pytest.raises(RowSumError, match="^probabilities sum to .*, expected 1$"):
            shannon_entropy([0.5, 0.6])


class TestEmpiricalEstimates:
    def test_sequence_level_pooled_counts(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"], ["a"]])
        report = sequence_level_estimate(corpus)
        assert report.method is EstimatorMethod.SEQUENCE_LEVEL
        assert abs(report.bits_per_symbol - H_TWO_THIRDS) < 1e-12

    def test_sequence_level_constant_corpus(self):
        corpus = SequenceCorpus.from_sequences([["a", "a"], ["a"]])
        assert sequence_level_estimate(corpus).bits_per_symbol == 0.0
        empty = SequenceCorpus([], [0, 0, 0], corpus.vocabulary)
        with pytest.raises(EmptyCorpusError):
            sequence_level_estimate(empty)

    def test_sequence_level_uniform_coverage(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "c", "d"]])
        assert sequence_level_estimate(corpus).bits_per_symbol == 2.0

    def test_path_level_average(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"], ["a"]])
        report = path_level_estimate(corpus)
        assert report.bits_per_symbol == 0.5

    def test_path_level_constant_sequences(self):
        corpus = SequenceCorpus.from_sequences([["a", "a"], ["b", "b", "b"]])
        assert path_level_estimate(corpus).bits_per_symbol == 0.0

    def test_path_level_single_sequence_collapses(self):
        corpus = SequenceCorpus.from_sequences([["a", "b", "b"]])
        assert path_level_estimate(corpus).bits_per_symbol == pytest.approx(
            sequence_level_estimate(corpus).bits_per_symbol
        )

    def test_path_level_empty_sequence(self):
        corpus = SequenceCorpus.from_sequences([["a"], []])
        with pytest.raises(EmptySequenceError):
            path_level_estimate(corpus)
        # A mean over no sequences would be NaN; sequence level raises here too.
        none = SequenceCorpus(np.array([], np.int32), np.array([0]), corpus.vocabulary)
        with pytest.raises(EmptyCorpusError, match="no tokens"):
            path_level_estimate(none)


class TestStationaryDistributionEstimate:
    def test_symmetric_chain(self):
        P = validate_stochastic([[0.9, 0.1], [0.1, 0.9]], ["a", "b"])
        assert stationary_distribution_estimate(P).bits_per_symbol == pytest.approx(1.0)

    def test_lazy_reset_chain(self):
        P = validate_stochastic([[0.5, 0.5], [1.0, 0.0]], ["a", "b"])
        value = stationary_distribution_estimate(P).bits_per_symbol
        assert abs(value - H_TWO_THIRDS) < 1e-9

    def test_single_state(self):
        P = validate_stochastic([[1.0]], ["a"])
        assert stationary_distribution_estimate(P).bits_per_symbol == 0.0

    def test_requires_irreducible(self):
        P = validate_stochastic([[1.0, 0.0], [0.0, 1.0]], ["a", "b"])
        with pytest.raises(NotIrreducibleError):
            stationary_distribution_estimate(P)


class TestPluginEstimates:
    def test_markov_plugin_recovers_simulated_chain(self):
        rng = np.random.default_rng(41)
        P = random_ergodic(3, rng)
        truth = entropy_rate(P, stationary_distribution(P))
        corpus = SequenceCorpus.from_sequences([simulate_markov(P, 10**6, seed=3)])
        for conditioning in (LargestCC(), Induced(2.0**-15)):
            report = markov_plugin_estimate(corpus, conditioning)
            assert abs(report.bits_per_symbol - truth) < 0.01

    def test_markov_plugin_cycle_is_zero(self):
        corpus = SequenceCorpus.from_sequences([["a", "b"] * 500])
        report = markov_plugin_estimate(corpus, LargestCC())
        assert report.method is EstimatorMethod.MARKOV_LARGEST_CC
        assert report.bits_per_symbol == 0.0

    def test_markov_plugin_two_components_induced(self):
        corpus = two_component_corpus(steps=20_000)
        report = markov_plugin_estimate(corpus, Induced(2.0**-15))
        # oracle: exact eigen solve of the conditioned matrix.
        from lamp_entropy import apply_conditioning, fit_first_order

        conditioned, _ = apply_conditioning(fit_first_order(corpus), Induced(2.0**-15))
        vals, vecs = np.linalg.eig(conditioned.rows.T)
        j = int(np.argmin(np.abs(vals - 1.0)))
        pi = np.abs(np.real(vecs[:, j]))
        pi /= pi.sum()
        oracle = 0.0
        for i in range(conditioned.n):
            for c in range(conditioned.n):
                p = conditioned.rows[i, c]
                if p > 0:
                    oracle -= pi[i] * p * np.log2(p)
        assert abs(report.bits_per_symbol - oracle) < 1e-6
        assert report.conditioning["method"] == "induced"

    def test_lamp_plugin_k1_equals_markov(self):
        rng = np.random.default_rng(42)
        P = random_ergodic(3, rng)
        corpus = SequenceCorpus.from_sequences([simulate_markov(P, 20_000, seed=4)])
        lamp = lamp_plugin_estimate(corpus, 1, LargestCC())
        markov = markov_plugin_estimate(corpus, LargestCC())
        assert lamp.bits_per_symbol == markov.bits_per_symbol
        assert lamp.method is EstimatorMethod.LAMP_LARGEST_CC

    def test_plugin_estimates_skip_an_empty_sequence(self):
        gap = SequenceCorpus.from_sequences([["a", "b", "a", "b"], []])
        alone = SequenceCorpus.from_sequences([["a", "b", "a", "b"]])
        for estimate in (markov_plugin_estimate, partial(lamp_plugin_estimate, k=2)):
            assert estimate(gap, conditioning=LargestCC()) == estimate(
                alone, conditioning=LargestCC()
            )

    def test_lamp_plugin_recovers_generator(self):
        P = validate_stochastic(
            [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]], list("abc")
        )
        truth = entropy_rate(P, stationary_distribution(P))
        model = LampModel(P, KernelDistribution([0.5, 0.3, 0.2]))
        corpus = SequenceCorpus.from_sequences([simulate_lamp(model, 10**5, seed=5)])
        report = lamp_plugin_estimate(corpus, 3, Induced(2.0**-15))
        assert abs(report.bits_per_symbol - truth) < 0.02
        assert len(report.details["kernel"]) == 3

    def test_estimator_ordering_on_first_order_data(self):
        # pooled frequencies overestimate when sequences start at the
        # least likely state; the entropy rate is below both.
        rng = np.random.default_rng(43)
        rows = rng.dirichlet(np.ones(4), size=5)
        P = np.zeros((5, 5))
        for i in range(5):
            P[i, [j for j in range(5) if j != i]] = rows[i]
        chain = validate_stochastic(P, list("abcde"))
        start = int(np.argmin(stationary_distribution(chain).probs))
        corpus = SequenceCorpus.from_sequences(
            [simulate_markov(chain, 1000, seed=100 + i, init=start) for i in range(100)]
        )
        seq_level = sequence_level_estimate(corpus).bits_per_symbol
        from lamp_entropy import apply_conditioning, fit_first_order

        conditioned, _ = apply_conditioning(fit_first_order(corpus), LargestCC())
        stat_level = stationary_distribution_estimate(conditioned).bits_per_symbol
        markov_level = markov_plugin_estimate(corpus, LargestCC()).bits_per_symbol
        assert seq_level - stat_level >= -1e-6
        assert stat_level - markov_level >= -1e-6


def random_corpus(rng):
    """A few sequences, each over its own random range of up to 12 symbols,
    so that many fitted chains are reducible."""
    n = int(rng.integers(1, 13))
    sequences = []
    for _ in range(int(rng.integers(1, 5))):
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo + 1, n + 1))
        codes = rng.integers(lo, hi, size=int(rng.integers(2, 120)))
        sequences.append([f"t{c}" for c in codes])
    return SequenceCorpus.from_sequences(sequences)


class TestConditioningPath:
    def test_largest_cc_rate_matches_the_restricted_chain(self):
        reducible = 0
        for seed in range(60):
            corpus = random_corpus(np.random.default_rng(seed))
            fitted = fit_first_order(corpus, smoothing=0.0)
            # The composition the estimator used to run, as the oracle.
            restricted, _, excluded = restrict_to_largest_scc(fitted)
            oracle = entropy_rate(restricted, stationary_distribution(restricted))
            report = markov_plugin_estimate(corpus, LargestCC())
            assert report.bits_per_symbol.hex() == oracle.hex(), seed
            assert report.conditioning["excluded"] == excluded
            reducible += excluded > 0
        assert reducible >= 10

    # The restriction is solved as it is, bit for bit; the (n+1)-state
    # chain of Induced is solved whole here, not per block.
    @pytest.mark.parametrize(
        "strategy, tol",
        [(LargestCC(), 0.0), (Induced(2.0**-15), 1e-12), (Induced(0.3), 1e-12)],
        ids=["largest_cc", "induced_2^-15", "induced_0.3"],
    )
    def test_stationary_estimate_matches_the_conditioned_chain(self, strategy, tol):
        for seed in range(40):
            fitted = fit_first_order(random_corpus(np.random.default_rng(seed)), smoothing=0.0)
            report = stationary_distribution_estimate(fitted, strategy)
            conditioned, expected = apply_conditioning(fitted, strategy)
            assert report.conditioning == expected
            oracle = stationary_distribution_estimate(conditioned).bits_per_symbol
            assert abs(report.bits_per_symbol - oracle) <= tol, seed

    def test_method_names_the_model_and_the_strategy(self):
        corpus = two_component_corpus(steps=500)
        for strategy, markov, lamp in (
            (LargestCC(), EstimatorMethod.MARKOV_LARGEST_CC, EstimatorMethod.LAMP_LARGEST_CC),
            (Induced(), EstimatorMethod.MARKOV_INDUCED, EstimatorMethod.LAMP_INDUCED),
        ):
            assert markov_plugin_estimate(corpus, strategy).method is markov
            assert lamp_plugin_estimate(corpus, 1, strategy, max_iter=3).method is lamp


class TestSweep:
    def test_irreducible_corpus_flat_tail(self):
        rng = np.random.default_rng(44)
        P = random_ergodic(3, rng)
        corpus = SequenceCorpus.from_sequences([simulate_markov(P, 50_000, seed=6)])
        sweep = sweep_p_artificial(corpus, kind="markov")
        assert sweep.exponents == tuple(range(1, 26))
        # perturbation vanishes with p: successive changes shrink below
        # 1e-3 past i=10 and the tail settles within 1e-3 of the limit.
        steps = np.abs(np.diff(sweep.raw))
        assert steps[12:].max() < 1e-3
        tail = np.array(sweep.raw[14:])
        assert tail.max() - tail.min() < 1e-3
        assert sweep.recommended_exponent == 25

    def test_reducible_corpus_converges_from_above(self):
        corpus = two_component_corpus(steps=20_000)
        sweep = sweep_p_artificial(corpus, kind="markov")
        raw = np.array(sweep.raw)
        assert (np.diff(raw[5:]) <= 1e-12).all()
        assert sweep.recommended_exponent is not None

    def test_lamp_kind_fits_once_and_sweeps(self):
        rng = np.random.default_rng(45)
        P = random_ergodic(3, rng)
        model = LampModel(P, KernelDistribution([0.7, 0.3]))
        corpus = SequenceCorpus.from_sequences([simulate_lamp(model, 20_000, seed=7)])
        sweep = sweep_p_artificial(corpus, kind="lamp", k=2, exponents=range(1, 13))
        assert len(sweep.raw) == 12

    def test_normalized_attains_bounds(self):
        corpus = two_component_corpus(steps=10_000)
        sweep = sweep_p_artificial(corpus, kind="markov", exponents=range(1, 16))
        assert min(sweep.normalized) == 0.0
        assert max(sweep.normalized) == 1.0

    def test_minmax_constant_curve_is_zeros(self):
        assert minmax_normalize([1.5, 1.5, 1.5]) == [0.0, 0.0, 0.0]

    def test_read_sweep_csv_closes_its_file(self, tmp_path, monkeypatch):
        raw = (3.0, 2.5, 2.4)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(SweepResult((1, 2, 3), raw, tuple(minmax_normalize(raw)), None), path)
        # A file left open warns when it is freed; as an error raised in a
        # finaliser, that reaches sys.unraisablehook, not the caller.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            back = read_sweep_csv(path)
            gc.collect()
        assert unraisable == []
        assert back.raw == raw

    def test_read_sweep_csv_reads_past_a_byte_order_mark(self, tmp_path):
        raw = (3.0, 2.5, 2.4)
        sweep = SweepResult((1, 2, 3), raw, tuple(minmax_normalize(raw)), None)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert read_sweep_csv(path) == sweep

    def test_read_sweep_csv_names_a_malformed_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("i,p,raw_bits\n1,0.5,3.0\n", encoding="utf-8")
        with pytest.raises(MalformedFileError, match="sweep.csv.*normalized"):
            read_sweep_csv(path)
        path.write_text("i,p,raw_bits,normalized\n1,0.5,three,1.0\n", encoding="utf-8")
        with pytest.raises(MalformedFileError, match="sweep.csv"):
            read_sweep_csv(path)

    def test_read_sweep_csv_rejects_an_empty_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_bytes(b"")
        with pytest.raises(MalformedFileError, match="sweep.csv.*no sweep points"):
            read_sweep_csv(path)

    def test_read_sweep_csv_rejects_a_header_only_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("i,p,raw_bits,normalized\n", encoding="utf-8")
        with pytest.raises(MalformedFileError, match="sweep.csv.*no sweep points"):
            read_sweep_csv(path)


class TestDetectPlateau:
    def test_flat_tail_returns_largest_exponent(self):
        exps = tuple(range(1, 26))
        raw = tuple(2.0 ** -min(i, 12) + 3.0 for i in exps)
        sweep = SweepResult(exps, raw, tuple(minmax_normalize(raw)), None)
        assert detect_plateau(sweep) == 25

    def test_steep_curve_has_no_plateau(self):
        exps = tuple(range(1, 11))
        raw = tuple(10.0 / i for i in exps)
        sweep = SweepResult(exps, raw, tuple(minmax_normalize(raw)), None)
        assert detect_plateau(sweep) is None

    def test_decaying_curve_boundary_matches_enumeration(self):
        # raw_i = 2^-i + 3: enumerate the qualifying windows directly and
        # compare against truncations of the curve.
        def oracle_qualifies(raw, j, rel_tol=1e-3, window=3):
            chunk = raw[j - window + 1 : j + 1]
            return all(
                abs(a - b) < rel_tol * abs(raw[j]) for a in chunk for b in chunk
            )

        exps = tuple(range(1, 26))
        raw = tuple(2.0**-i + 3.0 for i in exps)
        qualifying = [exps[j] for j in range(2, len(raw)) if oracle_qualifies(raw, j)]
        assert qualifying[0] == 10  # first stable window ends at i = 10
        for cut in range(3, len(exps) + 1):
            sweep = SweepResult(exps[:cut], raw[:cut], (), None)
            expected = max((e for e in qualifying if e <= exps[cut - 1]), default=None)
            assert detect_plateau(sweep) == expected

    def test_window_validation(self):
        sweep = SweepResult((1, 2), (1.0, 1.0), (0.0, 0.0), None)
        with pytest.raises(ValueError):
            detect_plateau(sweep, window=1)


def test_reports_bounded_by_log_vocabulary():
    rng = np.random.default_rng(46)
    P = random_ergodic(4, rng)
    corpus = SequenceCorpus.from_sequences([simulate_markov(P, 20_000, seed=8)])
    reports = [
        sequence_level_estimate(corpus),
        path_level_estimate(corpus),
        markov_plugin_estimate(corpus, LargestCC()),
        markov_plugin_estimate(corpus, Induced(2.0**-15)),
    ]
    for report in reports:
        n_states = (report.conditioning or {}).get("n_after", corpus.vocabulary.n)
        assert 0.0 <= report.bits_per_symbol <= np.log2(n_states) + 1e-12


def test_sweep_rejects_empty_exponent_range():
    corpus = SequenceCorpus.from_sequences([["a", "b"] * 100])
    with pytest.raises(ValueError):
        sweep_p_artificial(corpus, kind="markov", exponents=[])
    with pytest.raises(ValueError):
        sweep_p_artificial(corpus, kind="lamp")  # k missing
    with pytest.raises(ValueError):
        sweep_p_artificial(corpus, kind="nonsense")
    # The range is checked before the fit: EM on a corpus of one token would find nothing to fit.
    short = SequenceCorpus.from_sequences([["a"]])
    with pytest.raises(ValueError, match="exponent range is empty"):
        sweep_p_artificial(short, kind="lamp", k=1, exponents=range(5, 1))


def test_sweep_rejects_fractional_exponents():
    # int() would sweep 1.5 and 2.7 as the exponents 1 and 2.
    corpus = SequenceCorpus.from_sequences([["a", "b", "a", "c"] * 20])
    with pytest.raises(ValueError, match="1.5"):
        sweep_p_artificial(corpus, "markov", exponents=[1.5, 2.7])
    with pytest.raises(ValueError, match="2.7"):
        sweep_p_artificial(corpus, "markov", exponents=[1, 2.7])
    sweep = sweep_p_artificial(corpus, "markov", exponents=np.arange(1, 4))
    assert sweep == sweep_p_artificial(corpus, "markov", exponents=[1, 2, 3])
    assert [type(i) for i in sweep.exponents] == [int] * 3


@pytest.mark.parametrize("kind", list(DEFAULT_SWEEP_EXPONENTS))
@pytest.mark.parametrize("bad", [0, -3, 1075, pytest.param(10**400, id="10**400"), -2000])
def test_sweep_checks_every_p_before_fitting(monkeypatch, kind, bad):
    # 2**-i must lie in (0, 1): i = 0 and -3 give p >= 1, and 2.0**-1075 is 0.0;
    # 10**400 cannot be converted to a float, and 2.0**2000 overflows.
    fits = []
    monkeypatch.setattr("lamp_entropy.estimators.fit_first_order", lambda *a, **kw: fits.append(a))
    monkeypatch.setattr("lamp_entropy.estimators.fit_lamp_em", lambda *a, **kw: fits.append(a))
    corpus = SequenceCorpus.from_sequences([["a", "b", "a", "c"] * 20])
    with pytest.raises(InvalidProbabilityError, match=f"exponent {bad} "):
        sweep_p_artificial(corpus, kind, k=1, exponents=[1, 2, bad])
    assert fits == []


@pytest.mark.parametrize(
    "estimate, error",
    [
        (lambda corpus, P: markov_plugin_estimate(corpus, "induced"), TypeError),
        (lambda corpus, P: lamp_plugin_estimate(corpus, 2, None), TypeError),
        (lambda corpus, P: stationary_distribution_estimate(P, "x"), TypeError),
        (lambda corpus, P: markov_plugin_estimate(corpus, Induced(1.5)), InvalidProbabilityError),
    ],
    ids=["markov", "lamp", "stationary", "induced-weight"],
)
def test_estimators_check_the_strategy_before_fitting(monkeypatch, estimate, error):
    def fit(*args, **kwargs):
        raise AssertionError("fitted before the strategy was checked")

    monkeypatch.setattr("lamp_entropy.estimators.fit_first_order", fit)
    monkeypatch.setattr("lamp_entropy.estimators.fit_lamp_em", fit)
    corpus = SequenceCorpus.from_sequences([["a", "b", "a", "c"] * 20])
    P = validate_stochastic([[0.5, 0.5], [1.0, 0.0]], ["a", "b"])
    match = "unknown conditioning strategy" if error is TypeError else "1.5"
    with pytest.raises(error, match=match):
        estimate(corpus, P)


@pytest.mark.parametrize("kind", list(DEFAULT_SWEEP_EXPONENTS))
def test_sweep_default_exponents_come_from_the_table(kind):
    corpus = SequenceCorpus.from_sequences([["a", "b", "a", "c"] * 20])
    result = sweep_p_artificial(corpus, kind=kind, k=1, max_iter=2)
    assert result.exponents == tuple(DEFAULT_SWEEP_EXPONENTS[kind])


def test_report_json_shape():
    corpus = SequenceCorpus.from_sequences([["a", "b"] * 50])
    report = markov_plugin_estimate(corpus, Induced(0.25))
    assert report.preprocessing is None
    doc = replace(report, preprocessing={"min_count": 1}).to_json_dict()
    assert set(doc) == {"method", "bits_per_symbol", "conditioning", "preprocessing", "details"}
    assert doc["method"] == "markov_induced"
    assert doc["conditioning"]["p_artificial"] == 0.25
    assert doc["preprocessing"] == {"min_count": 1}

"""Unit tests for the synthetic market-basket generator (paper Section 5)."""

import numpy as np
import pytest

from repro.data.generator import (
    GeneratorConfig,
    MarketBasketGenerator,
    format_spec,
    generate,
    parse_spec,
)


class TestSpecParsing:
    def test_basic(self):
        config = parse_spec("T10.I6.D100K")
        assert config.avg_transaction_size == 10.0
        assert config.avg_pattern_size == 6.0
        assert config.num_transactions == 100_000

    def test_fractional_t(self):
        assert parse_spec("T7.5.I6.D1K").avg_transaction_size == 7.5

    def test_millions_suffix(self):
        assert parse_spec("T10.I6.D2M").num_transactions == 2_000_000

    def test_raw_count(self):
        assert parse_spec("T10.I6.D123").num_transactions == 123

    def test_case_insensitive(self):
        assert parse_spec("t10.i4.d5k").num_transactions == 5000

    def test_overrides(self):
        config = parse_spec("T10.I6.D1K", seed=42, num_items=77)
        assert config.seed == 42
        assert config.num_items == 77

    @pytest.mark.parametrize("bad", ["T10.D100K", "I6.D100K", "", "banana"])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_format_round_trip(self):
        for spec in ["T10.I6.D100K", "T7.5.I4.D2M", "T5.I6.D123"]:
            assert format_spec(parse_spec(spec)) == spec


class TestConfigValidation:
    def test_rejects_zero_transactions(self):
        with pytest.raises(ValueError):
            GeneratorConfig(num_transactions=0)

    def test_rejects_bad_carry_fraction(self):
        with pytest.raises(ValueError):
            GeneratorConfig(num_transactions=10, carry_fraction=1.5)

    def test_with_replaces_fields(self):
        config = GeneratorConfig(num_transactions=10)
        changed = config.with_(num_transactions=20, seed=3)
        assert changed.num_transactions == 20
        assert changed.seed == 3
        assert config.num_transactions == 10

    def test_spec_property(self):
        config = GeneratorConfig(
            num_transactions=5000, avg_transaction_size=10, avg_pattern_size=6
        )
        assert config.spec == "T10.I6.D5K"


@pytest.fixture(scope="module")
def gen():
    return MarketBasketGenerator(
        GeneratorConfig(
            num_transactions=2000,
            avg_transaction_size=10,
            avg_pattern_size=6,
            num_items=300,
            num_patterns=100,
            seed=7,
        )
    )


@pytest.fixture(scope="module")
def db(gen):
    return gen.generate()


class TestPatterns:
    def test_pattern_count(self, gen):
        assert len(gen.patterns) == 100

    def test_patterns_non_empty_and_in_universe(self, gen):
        for pattern in gen.patterns:
            assert pattern.size >= 1
            assert pattern.min() >= 0
            assert pattern.max() < 300

    def test_patterns_are_duplicate_free(self, gen):
        for pattern in gen.patterns:
            assert len(np.unique(pattern)) == pattern.size

    def test_successive_patterns_share_items(self, gen):
        """The carry-over rule must make consecutive patterns overlap."""
        patterns = gen.patterns
        overlaps = [
            len(set(patterns[i].tolist()) & set(patterns[i + 1].tolist()))
            for i in range(len(patterns) - 1)
        ]
        assert np.mean(overlaps) > 1.0

    def test_probabilities_normalised(self, gen):
        assert gen.pattern_probabilities.sum() == pytest.approx(1.0)

    def test_noise_levels_clipped(self, gen):
        noise = gen.noise_levels
        assert noise.min() >= 0.01
        assert noise.max() <= 0.99


class TestGeneratedData:
    def test_size(self, db):
        assert len(db) == 2000

    def test_universe(self, db):
        assert db.universe_size == 300

    def test_mean_transaction_size_near_t(self, db):
        # Poisson(10) sizes with spill-over noise; generous tolerance.
        assert 8.0 <= db.avg_transaction_size <= 12.5

    def test_no_empty_transactions(self, db):
        assert int(db.sizes.min()) >= 1

    def test_transactions_contain_pattern_fragments(self, gen, db):
        """Most transactions should overlap substantially with at least one
        pattern — the data is built from corrupted patterns."""
        patterns = [set(p.tolist()) for p in gen.patterns]
        hits = 0
        for tid in range(0, 200):
            transaction = db[tid]
            best = max(len(transaction & p) for p in patterns)
            if best >= 2:
                hits += 1
        assert hits > 150

    def test_determinism(self):
        config = GeneratorConfig(
            num_transactions=300, num_items=100, num_patterns=40, seed=9
        )
        a = MarketBasketGenerator(config).generate()
        b = MarketBasketGenerator(config).generate()
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(num_transactions=300, num_items=100, num_patterns=40)
        a = MarketBasketGenerator(GeneratorConfig(seed=1, **base)).generate()
        b = MarketBasketGenerator(GeneratorConfig(seed=2, **base)).generate()
        assert a != b

    def test_generate_override_count(self, gen):
        extra = gen.generate(num_transactions=50)
        assert len(extra) == 50

    def test_tiny_universe_terminates(self):
        """A target size above what the patterns cover used to spin
        forever (found by the generator property test)."""
        config = GeneratorConfig(
            num_transactions=20, avg_transaction_size=6, avg_pattern_size=4,
            num_items=10, num_patterns=5, seed=1783769359,
        )
        db = MarketBasketGenerator(config).generate()
        assert len(db) == 20 and int(db.sizes.max()) <= 10

    def test_transaction_size_scales_with_t(self):
        base = dict(num_transactions=1500, num_items=300, num_patterns=100, seed=3)
        small = MarketBasketGenerator(
            GeneratorConfig(avg_transaction_size=5, **base)
        ).generate()
        large = MarketBasketGenerator(
            GeneratorConfig(avg_transaction_size=15, **base)
        ).generate()
        assert large.avg_transaction_size > small.avg_transaction_size + 5


class TestGenerateConvenience:
    def test_from_spec(self):
        db = generate("T5.I3.D200", seed=1, num_items=50, num_patterns=20)
        assert len(db) == 200
        assert db.universe_size == 50

    def test_from_config(self):
        config = GeneratorConfig(
            num_transactions=100, num_items=50, num_patterns=20, seed=2
        )
        assert len(generate(config)) == 100

    def test_seed_argument_overrides(self):
        a = generate("T5.I3.D100", seed=1, num_items=50, num_patterns=20)
        b = generate("T5.I3.D100", seed=2, num_items=50, num_patterns=20)
        assert a != b

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            generate(123)


class TestItemSkew:
    """The Zipf ``item_skew`` knob (cluster/rebalance benchmark datasets)."""

    def _frequencies(self, skew):
        db = generate(
            "T8.I4.D600",
            seed=13,
            num_items=100,
            num_patterns=60,
            item_skew=skew,
        )
        counts = np.zeros(100)
        for tid in range(len(db)):
            for item in db[tid]:
                counts[item] += 1
        return counts / counts.sum()

    def test_zero_skew_is_byte_identical_to_default(self):
        plain = generate("T6.I3.D300", seed=4, num_items=80, num_patterns=40)
        zeroed = generate(
            "T6.I3.D300", seed=4, num_items=80, num_patterns=40, item_skew=0.0
        )
        assert plain == zeroed

    def test_positive_skew_concentrates_head_items(self):
        uniform = self._frequencies(0.0)
        skewed = self._frequencies(2.0)
        head = slice(0, 10)  # lowest ids = highest Zipf rank
        assert skewed[head].sum() > 2 * uniform[head].sum()

    def test_skew_is_deterministic(self):
        kwargs = dict(seed=9, num_items=60, num_patterns=30, item_skew=1.5)
        assert generate("T5.I3.D150", **kwargs) == generate(
            "T5.I3.D150", **kwargs
        )

    def test_item_probabilities_property(self):
        config = GeneratorConfig(
            num_transactions=10, num_items=5, num_patterns=4, item_skew=1.0
        )
        probs = MarketBasketGenerator(config).item_probabilities
        assert probs is not None
        assert probs.sum() == pytest.approx(1.0)
        assert all(a > b for a, b in zip(probs, probs[1:]))
        uniform = MarketBasketGenerator(config.with_(item_skew=0.0))
        assert uniform.item_probabilities is None

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(
                num_transactions=10, num_items=5, num_patterns=4,
                item_skew=-0.5,
            )

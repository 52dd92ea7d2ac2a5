"""D&C-GEN tests (Algorithm 1 invariants).

These run against an *untrained* PagPassGPT: the algorithm's guarantees
(non-overlapping subtasks, budget conservation, conformity) must hold for
any next-token distribution, so training is unnecessary.
"""

import numpy as np
import pytest

from repro.datasets import build_corpus
from repro.generation import DCGenConfig, DCGenerator, remaining_search_space
from repro.models import PagPassGPT
from repro.nn import GPT2Config
from repro.tokenizer import Pattern, extract_pattern


@pytest.fixture(scope="module")
def untrained_pag():
    model = PagPassGPT(
        model_config=GPT2Config(vocab_size=135, block_size=32, dim=32, n_layers=1, n_heads=2, dropout=0.0),
        seed=0,
    )
    # Mark fitted with a hand-made pattern distribution; weights stay random.
    model._fitted = True
    model.pattern_probs = {"L4N2": 0.5, "N6": 0.3, "L3S1N2": 0.2}
    return model


class TestRemainingSearchSpace:
    def test_full_pattern(self):
        assert remaining_search_space(Pattern.parse("N3"), 0) == 1000
        assert remaining_search_space(Pattern.parse("L1N1"), 0) == 520

    def test_partial(self):
        p = Pattern.parse("L2N2")
        assert remaining_search_space(p, 1) == 52 * 100
        assert remaining_search_space(p, 4) == 1

    def test_matches_pattern_search_space(self):
        p = Pattern.parse("L4N3S1")
        assert remaining_search_space(p, 0) == p.search_space()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DCGenConfig(threshold=0)
        with pytest.raises(ValueError):
            DCGenConfig(min_count=0)
        with pytest.raises(ValueError):
            DCGenConfig(gen_batch=0)
        with pytest.raises(ValueError):
            DCGenConfig(workers=0)


class TestAlgorithm:
    def test_requires_fitted_model(self):
        model = PagPassGPT(
            model_config=GPT2Config(vocab_size=135, block_size=32, dim=32, n_layers=1, n_heads=2, dropout=0.0)
        )
        with pytest.raises(RuntimeError):
            DCGenerator(model).generate(10)

    def test_requires_pattern_distribution(self, untrained_pag):
        gen = DCGenerator(untrained_pag)
        with pytest.raises(ValueError):
            gen.generate(10, pattern_probs={})

    def test_output_conforms_to_input_patterns(self, untrained_pag):
        gen = DCGenerator(untrained_pag, DCGenConfig(threshold=50))
        out = gen.generate(400, seed=0)
        allowed = set(untrained_pag.pattern_probs)
        assert out
        for pw in out:
            assert extract_pattern(pw).string in allowed

    def test_budget_allocation_proportional(self, untrained_pag):
        gen = DCGenerator(untrained_pag, DCGenConfig(threshold=100))
        out = gen.generate(1000, seed=0)
        counts = {}
        for pw in out:
            counts[extract_pattern(pw).string] = counts.get(pw and extract_pattern(pw).string, 0) + 1
        total = len(out)
        assert counts["L4N2"] / total == pytest.approx(0.5, abs=0.1)
        assert counts["N6"] / total == pytest.approx(0.3, abs=0.1)

    def test_search_space_cap(self, untrained_pag):
        """A pattern with a tiny search space cannot be asked for more
        guesses than exist (optimisation 2, §III-C3)."""
        gen = DCGenerator(untrained_pag, DCGenConfig(threshold=10))
        out = gen.generate(100_000, pattern_probs={"S1": 1.0}, seed=0)
        assert len(out) <= 32
        assert len(set(out)) == len(out)  # full division -> all distinct

    def test_full_division_eliminates_duplicates(self, untrained_pag):
        """With threshold 1 every leaf is a single fully-specified prefix,
        so the output must be duplicate-free (the paper's T->1 limit)."""
        gen = DCGenerator(untrained_pag, DCGenConfig(threshold=1))
        out = gen.generate(300, pattern_probs={"N4": 1.0}, seed=0)
        assert len(set(out)) == len(out)

    def test_low_threshold_reduces_repeats(self, untrained_pag):
        big = DCGenerator(untrained_pag, DCGenConfig(threshold=4096))
        small = DCGenerator(untrained_pag, DCGenConfig(threshold=16))
        guesses_big = big.generate(3000, pattern_probs={"N4": 1.0}, seed=1)
        guesses_small = small.generate(3000, pattern_probs={"N4": 1.0}, seed=1)

        def rep(g):
            return 1 - len(set(g)) / len(g)

        assert rep(guesses_small) <= rep(guesses_big)

    def test_stats_populated(self, untrained_pag):
        gen = DCGenerator(untrained_pag, DCGenConfig(threshold=20))
        out = gen.generate(500, seed=0)
        stats = gen.stats
        assert stats.generated == len(out)
        assert stats.patterns_used >= 1
        assert stats.leaves >= stats.patterns_used
        assert stats.model_calls > 0

    def test_max_patterns_limits_coverage(self, untrained_pag):
        gen = DCGenerator(untrained_pag, DCGenConfig(threshold=100, max_patterns=1))
        out = gen.generate(300, seed=0)
        patterns = {extract_pattern(pw).string for pw in out}
        assert patterns == {"L4N2"}  # highest-probability pattern only

    def test_total_close_to_requested(self, untrained_pag):
        gen = DCGenerator(untrained_pag, DCGenConfig(threshold=64))
        out = gen.generate(2000, seed=0)
        assert len(out) == pytest.approx(2000, rel=0.25)

    def test_deterministic_division_tree(self, untrained_pag):
        g1 = DCGenerator(untrained_pag, DCGenConfig(threshold=32)).generate(500, seed=9)
        g2 = DCGenerator(untrained_pag, DCGenConfig(threshold=32)).generate(500, seed=9)
        assert g1 == g2

    def test_determinism_regression(self, untrained_pag):
        """Two independent runs with one seed/config are byte-identical —
        guess list AND stats (the reproducibility contract the parallel
        backend builds on)."""
        first = DCGenerator(untrained_pag, DCGenConfig(threshold=32))
        second = DCGenerator(untrained_pag, DCGenConfig(threshold=32))
        out1 = first.generate(700, seed=9)
        out2 = second.generate(700, seed=9)
        assert "\n".join(out1).encode() == "\n".join(out2).encode()
        assert first.stats == second.stats

    def test_gen_batch_does_not_change_output(self, untrained_pag):
        """The model-call batch width is a pure throughput knob: every
        leaf pre-draws its randomness, so repacking rows into different
        batches cannot change what is sampled."""
        base = DCGenerator(untrained_pag, DCGenConfig(threshold=64)).generate(800, seed=5)
        for gen_batch in (7, 64, 1024):
            gen = DCGenerator(untrained_pag, DCGenConfig(threshold=64, gen_batch=gen_batch))
            assert gen.generate(800, seed=5) == base


class TestDedupedPriming:
    """Physical forward work must match the logical stats and the plan."""

    def test_cold_serial_run_physical_equals_logical(self, untrained_pag):
        model = untrained_pag
        model.invalidate_inference()  # cold weight snapshot + prompt cache
        gen = DCGenerator(model, DCGenConfig(threshold=40, gen_batch=64))
        counters = model.inference.counters
        counters.reset()
        out = gen.generate(600, seed=1)
        assert out
        # In a cold serial run every logical call happens physically
        # exactly once; a mismatch means hidden re-priming (or phantom
        # accounting) crept in.
        assert counters.calls == gen.stats.model_calls

    def test_execute_counters_match_planned_costs(self, untrained_pag):
        from repro.generation import build_batches, execute_batch, planned_execute_costs

        model = untrained_pag
        model.invalidate_inference()
        gen = DCGenerator(model, DCGenConfig(threshold=40, gen_batch=64))
        leaves = gen.plan(600)  # warms every pattern prompt
        batches = build_batches(leaves, 64)
        planned = planned_execute_costs(batches)
        counters = model.inference.counters
        counters.reset()
        for batch in batches:
            execute_batch(model, batch, 1)
        assert counters.calls == planned["model_calls"]
        assert counters.prime_positions == planned["primed_positions"]

    def test_priming_flops_proxy_reduced_at_least_2x(self, untrained_pag):
        """The headline dedup win: primed rows x prefix length drops >=2x
        vs per-row priming (what execute_batch did before the fast path)."""
        from repro.generation import build_batches, planned_execute_costs

        model = untrained_pag
        model.invalidate_inference()
        gen = DCGenerator(model, DCGenConfig(threshold=40, gen_batch=64))
        leaves = gen.plan(600)
        batches = build_batches(leaves, 64)
        legacy = sum(
            batch.rows
            * (batch.slices[0][0].prompt_len + batch.slices[0][0].done_chars)
            for batch in batches
            if Pattern.parse(batch.slices[0][0].pattern).length
            > batch.slices[0][0].done_chars
        )
        prompts = {leaf.pattern: leaf.prompt_len for leaf in leaves}
        deduped = planned_execute_costs(batches)["primed_positions"] + sum(
            prompts.values()
        )
        assert legacy >= 2 * deduped

"""KV-cache row operations and cached-vs-serial logit equivalence.

``tests/test_nn_inference.py`` covers the happy path; this file stresses
the cache's ``select`` (gather) / ``repeat_rows`` (replicate) operations
— the primitives D&C-GEN uses when splitting task batches — plus the
serial-vs-cached equivalence at several prefix lengths, including the
degenerate one-token prompt and a full-block decode.  It also pins batch
invariance: each row of a batched ``start``/``extend``/
``constrained_distribution`` is bitwise equal to that row run alone.
"""

import numpy as np
import pytest

from repro.generation.sampler import constrained_distribution
from repro.nn import GPT2Config, GPT2Inference, GPT2Model
from repro.nn.inference import KVCache

BLOCK = 16
VOCAB = 30


@pytest.fixture(scope="module")
def inf():
    cfg = GPT2Config(vocab_size=VOCAB, block_size=BLOCK, dim=32, n_layers=2, n_heads=4, dropout=0.0)
    model = GPT2Model(cfg, seed=5)
    model.eval()
    return GPT2Inference(model)


@pytest.fixture(scope="module")
def ids():
    return np.random.default_rng(8).integers(0, VOCAB, (6, BLOCK))


class TestPrefixLengths:
    @pytest.mark.parametrize("prefix_len", [1, 2, 5, 11, BLOCK - 1])
    def test_start_matches_full_forward(self, inf, ids, prefix_len):
        full = inf.logits(ids[:, :prefix_len])
        last, cache = inf.start(ids[:, :prefix_len])
        assert cache.length == prefix_len
        assert np.allclose(last, full[:, -1], atol=1e-4)

    @pytest.mark.parametrize("prefix_len", [1, 4, 9, BLOCK - 1])
    def test_cached_decode_matches_serial_recompute(self, inf, ids, prefix_len):
        """Every cached step equals a from-scratch forward of the same
        prefix — the strongest form of serial-vs-cached equivalence."""
        _, cache = inf.start(ids[:, :prefix_len])
        for t in range(prefix_len, BLOCK):
            serial = inf.logits(ids[:, : t + 1])[:, -1]
            last = inf.step(ids[:, t], cache)
            assert np.allclose(last, serial, atol=1e-4), f"prefix {prefix_len}, step {t}"

    def test_full_block_prompt_leaves_no_room_to_step(self, inf, ids):
        _, cache = inf.start(ids)
        assert cache.length == BLOCK
        with pytest.raises(ValueError):
            inf.step(ids[:, 0], cache)


class TestSelect:
    """``select`` gathers batch rows — used when surviving sub-prefixes
    continue decoding after a task split."""

    @pytest.mark.parametrize("prefix_len", [2, 7, 12])
    def test_gathered_rows_continue_identically(self, inf, ids, prefix_len):
        _, cache = inf.start(ids[:, :prefix_len])
        rows = np.array([1, 4, 5])
        sub = cache.select(rows)
        assert sub.batch == 3
        assert sub.length == prefix_len
        fresh_last, fresh_cache = inf.start(ids[rows, :prefix_len])
        stepped = inf.step(ids[rows, prefix_len], sub)
        expected = inf.step(ids[rows, prefix_len], fresh_cache)
        assert np.allclose(stepped, expected, atol=1e-4)

    def test_reordering_rows(self, inf, ids):
        _, cache = inf.start(ids[:, :6])
        perm = np.array([3, 0, 5, 1])
        sub = cache.select(perm)
        out = inf.step(ids[perm, 6], sub)
        expected = inf.logits(ids[perm, :7])[:, -1]
        assert np.allclose(out, expected, atol=1e-4)

    def test_select_of_select(self, inf, ids):
        _, cache = inf.start(ids[:, :4])
        sub = cache.select(np.array([0, 2, 4])).select(np.array([1, 2]))
        assert sub.batch == 2
        out = inf.step(ids[[2, 4], 4], sub)
        expected = inf.logits(ids[[2, 4], :5])[:, -1]
        assert np.allclose(out, expected, atol=1e-4)

    def test_select_copies_storage(self, inf, ids):
        """Gather must deep-copy: stepping the child may not corrupt the
        parent (and vice versa)."""
        _, cache = inf.start(ids[:, :5])
        sub = cache.select(np.array([0, 1]))
        sub.keys[0][...] = 1e9
        stepped = inf.step(ids[:, 5], cache)
        expected = inf.logits(ids[:, :6])[:, -1]
        assert np.allclose(stepped, expected, atol=1e-4)
        parent_after = inf.start(ids[:, :5])[1].keys[0]
        assert np.allclose(cache.keys[0][:, :, :5], parent_after[:, :, :5], atol=1e-5)


class TestRepeatRows:
    """``repeat_rows`` replicates one row — used to fan a shared prefix
    out into a batch of samples."""

    @pytest.mark.parametrize("prefix_len", [1, 5, 10])
    def test_replicated_rows_match_tiled_prompt(self, inf, ids, prefix_len):
        _, cache = inf.start(ids[:, :prefix_len])
        rep = cache.repeat_rows(2, 4)
        assert rep.batch == 4
        assert rep.length == prefix_len
        next_ids = np.array([7, 8, 9, 7])
        out = inf.step(next_ids, rep)
        tiled = np.repeat(ids[2:3, :prefix_len], 4, axis=0)
        expected = inf.logits(
            np.concatenate([tiled, next_ids[:, None]], axis=1)
        )[:, -1]
        assert np.allclose(out, expected, atol=1e-4)

    def test_replicate_copies_storage(self, inf, ids):
        _, cache = inf.start(ids[:, :5])
        rep = cache.repeat_rows(0, 2)
        rep.values[1][...] = -1e9
        fresh = inf.start(ids[:, :5])[1]
        assert np.allclose(cache.values[1][:, :, :5], fresh.values[1][:, :, :5], atol=1e-5)

    def test_diverging_continuations_stay_row_independent(self, inf, ids):
        """Replicated rows fed different tokens must evolve like
        independent sequences."""
        _, cache = inf.start(ids[:1, :3])
        rep = cache.repeat_rows(0, 3)
        tokens = np.array([[1, 2, 3], [4, 5, 6]])  # two steps, three rows
        last = inf.step(tokens[0], rep)
        last = inf.step(tokens[1], rep)
        for row in range(3):
            seq = np.concatenate([ids[0, :3], tokens[:, row]])[None, :]
            expected = inf.logits(seq)[:, -1]
            assert np.allclose(last[row], expected[0], atol=1e-4), f"row {row}"


class TestPromptCacheAccounting:
    """Hit/miss/eviction stats (ISSUE 5): the cache's own counters must
    reproduce the planned dedup savings of a golden-spec campaign."""

    def test_golden_campaign_hits_match_planned_budget(self):
        from repro.generation import (
            DCGenConfig,
            DCGenerator,
            build_batches,
            execute_batch,
            planned_execute_costs,
        )
        from tests.goldens import SPEC, build_model

        model = build_model()
        dc = SPEC["dcgen"]
        gen = DCGenerator(model, DCGenConfig(threshold=dc["threshold"], gen_batch=128))
        leaves = gen.plan(dc["total"])
        cache = model.prompt_cache

        # The plan phase primes each divided pattern's prompt exactly once.
        plan_stats = cache.stats()
        assert plan_stats["misses"] == gen.stats.patterns_used
        assert plan_stats["size"] == plan_stats["misses"]

        batches = build_batches(leaves, 128)
        planned = planned_execute_costs(batches)
        for batch in batches:
            execute_batch(model, batch, dc["seed"])

        stats = cache.stats()
        # Execute-phase hits are exactly the planned dedup savings; the
        # execute phase never re-primes a prompt the plan already warmed.
        assert stats["hits"] - plan_stats["hits"] == planned["prompt_cache_hits"]
        assert stats["misses"] == plan_stats["misses"]
        assert stats["evictions"] == 0

    def test_registry_counters_track_cache_stats(self):
        from repro.nn.inference import PromptCache
        from repro.telemetry import get_registry

        cfg = GPT2Config(vocab_size=VOCAB, block_size=BLOCK, dim=32, n_layers=2, n_heads=4, dropout=0.0)
        model = GPT2Model(cfg, seed=5)
        model.eval()
        cache = PromptCache(GPT2Inference(model), maxsize=2)

        registry = get_registry()
        before = {
            key: registry.values().get(f"prompt_cache.{key}", 0)
            for key in ("hits", "misses", "evictions")
        }

        prompts = [np.array([1]), np.array([2]), np.array([3])]
        cache.lookup(prompts[0])
        cache.lookup(prompts[0])  # hit
        cache.lookup(prompts[1])
        cache.lookup(prompts[2])  # evicts prompt 0 (LRU, maxsize=2)
        cache.lookup(prompts[0])  # miss again: it was evicted

        assert cache.stats() == {"hits": 1, "misses": 4, "evictions": 2, "size": 2}
        after = registry.values()
        for key in ("hits", "misses", "evictions"):
            delta = after[f"prompt_cache.{key}"] - before[key]
            assert delta == cache.stats()[key], key


class TestPromptCacheInterleaved:
    """LRU behaviour under the ordered-frontier access pattern: the
    best-first enumerator interleaves lookups across every pattern's
    prompt each round, so eviction correctness (not just counts) matters
    — a re-primed entry must serve the same state as the evicted one."""

    def _cache(self, maxsize):
        from repro.nn.inference import PromptCache

        cfg = GPT2Config(vocab_size=VOCAB, block_size=BLOCK, dim=32, n_layers=2, n_heads=4, dropout=0.0)
        model = GPT2Model(cfg, seed=5)
        model.eval()
        inference = GPT2Inference(model)
        return PromptCache(inference, maxsize=maxsize), inference

    def test_interleaved_thrash_below_capacity(self):
        """Round-robin over maxsize+1 prompts: every lookup re-primes."""
        cache, _ = self._cache(maxsize=2)
        prompts = [np.array([p, p]) for p in (1, 2, 3)]
        rounds = 4
        for _ in range(rounds):
            for prompt in prompts:
                cache.lookup(prompt)
        stats = cache.stats()
        assert stats["hits"] == 0  # LRU always evicts the next one needed
        assert stats["misses"] == rounds * len(prompts)
        assert stats["evictions"] == rounds * len(prompts) - 2
        assert stats["size"] == 2

    def test_interleaved_all_hits_at_capacity(self):
        cache, _ = self._cache(maxsize=3)
        prompts = [np.array([p, p]) for p in (1, 2, 3)]
        for _ in range(4):
            for prompt in prompts:
                cache.lookup(prompt)
        stats = cache.stats()
        assert stats["misses"] == 3  # one priming each, then steady-state
        assert stats["hits"] == 3 * 3
        assert stats["evictions"] == 0

    def test_reprimed_entry_is_equivalent(self):
        """An evict-then-reprime cycle returns the same logits and a KV
        state that continues identically to an uncached start."""
        cache, inference = self._cache(maxsize=1)
        prompt_a, prompt_b = np.array([4, 5, 6]), np.array([7, 8])
        first_logits, _ = cache.lookup(prompt_a)
        cache.lookup(prompt_b)  # evicts prompt_a
        again_logits, again_kv = cache.lookup(prompt_a)  # re-primed
        assert np.array_equal(first_logits, again_logits)
        fresh_logits, fresh_kv = inference.start(prompt_a[None, :])
        assert np.array_equal(again_logits, fresh_logits)
        next_id = np.array([9])
        stepped = inference.step(next_id, again_kv.gather(np.array([0])))
        expected = inference.step(next_id, fresh_kv)
        assert np.allclose(stepped, expected, atol=1e-5)

    def test_touched_entry_survives_interleaving(self):
        """A hit refreshes recency: the other entry is the one evicted."""
        cache, _ = self._cache(maxsize=2)
        hot, warm, new = np.array([1]), np.array([2]), np.array([3])
        cache.lookup(hot)
        cache.lookup(warm)
        cache.lookup(hot)  # refresh: warm is now LRU
        cache.lookup(new)  # evicts warm
        assert cache.stats()["evictions"] == 1
        hits_before = cache.stats()["hits"]
        cache.lookup(hot)
        assert cache.stats()["hits"] == hits_before + 1  # still cached


class TestGatherIndices:
    """``KVCache.gather`` with the degenerate index lists the ordered
    frontier produces: empty groups and heavily duplicated rows."""

    def test_empty_indices_give_zero_batch(self, inf, ids):
        _, cache = inf.start(ids[:, :5])
        empty = cache.gather(np.array([], dtype=np.intp))
        assert empty.batch == 0
        assert empty.length == cache.length

    def test_empty_int_list(self, inf, ids):
        _, cache = inf.start(ids[:, :3])
        assert cache.gather(np.array([], dtype=np.int64)).batch == 0

    def test_duplicate_indices_replicate_rows(self, inf, ids):
        """Gathering [2,2,0,2] must behave like starting from the rows
        tiled that way — the fan-out the enumerator uses per batch."""
        _, cache = inf.start(ids[:, :6])
        picked = np.array([2, 2, 0, 2])
        fanned = cache.gather(picked)
        assert fanned.batch == 4
        stepped = inf.step(ids[picked, 6], fanned)
        expected = inf.logits(ids[picked, :7])[:, -1]
        assert np.allclose(stepped, expected, atol=1e-4)

    def test_duplicated_rows_are_independent_copies(self, inf, ids):
        """Mutating one duplicated row must not leak into its siblings."""
        _, cache = inf.start(ids[:, :4])
        fanned = cache.gather(np.array([1, 1]))
        fanned.keys[0][0, ...] = 1e9  # corrupt row 0 only
        survivor = fanned.gather(np.array([1]))
        stepped = inf.step(ids[[1], 4], survivor)
        expected = inf.logits(ids[[1], :5])[:, -1]
        assert np.allclose(stepped, expected, atol=1e-4)


class TestBookkeeping:
    def test_select_and_repeat_preserve_length(self, inf, ids):
        _, cache = inf.start(ids[:, :9])
        assert cache.select(np.array([0])).length == 9
        assert cache.repeat_rows(0, 5).length == 9

    def test_zero_row_select(self, inf, ids):
        _, cache = inf.start(ids[:, :4])
        empty = cache.select(np.array([], dtype=np.int64))
        assert empty.batch == 0
        assert empty.length == 4


class TestBatchInvariance:
    """A row's bits do not depend on the rows that share its call.

    The ordered enumerator runs nodes of different prompts in one
    forward and one ``constrained_distribution``, and its scores must
    equal those of each node expanded alone.
    """

    @pytest.mark.parametrize("prompt_len", [1, 3, 6])
    def test_start_rows_equal_lone_rows(self, inf, prompt_len):
        prompts = np.random.default_rng(prompt_len).integers(0, VOCAB, (40, prompt_len))
        logits, cache = inf.start(prompts)
        for row, prompt in enumerate(prompts):
            lone_logits, lone_cache = inf.start(prompt[None])
            assert np.array_equal(logits[row], lone_logits[0])
            pairs = zip(cache.keys + cache.values, lone_cache.keys + lone_cache.values)
            assert all(np.array_equal(mine[row], lone[0]) for mine, lone in pairs)

    @pytest.mark.parametrize("prompt_len,depth", [(1, 1), (3, 1), (3, 4), (6, 2)])
    def test_extend_rows_equal_lone_rows(self, inf, prompt_len, depth):
        rng = np.random.default_rng(10 * prompt_len + depth)
        prompts = rng.integers(0, VOCAB, (5, prompt_len))
        primed = [inf.start(prompt[None])[1].trimmed() for prompt in prompts]
        which = rng.integers(0, len(prompts), 40)
        chars = rng.integers(0, VOCAB, (40, depth))
        logits = inf.extend(chars, KVCache.gather_from(primed, which))
        for row in range(len(chars)):
            lone = inf.extend(chars[row : row + 1], primed[which[row]].gather([0]))
            assert np.array_equal(logits[row], lone[0])

    def test_constrained_distribution_rows_equal_lone_rows(self):
        rng = np.random.default_rng(0)
        logits = (4 * rng.standard_normal((33, 135))).astype(np.float32)
        for width in range(1, 71):
            allowed = rng.choice(135, width, replace=False)
            probs = constrained_distribution(logits, allowed)
            for row in range(len(logits)):
                lone = constrained_distribution(logits[row : row + 1], allowed)
                assert np.array_equal(probs[row], lone[0]), f"width {width}, row {row}"


class TestGatherFrom:
    def test_rows_numbered_across_caches(self, inf, ids):
        parts = [inf.start(ids[:2, :4])[1].trimmed(), inf.start(ids[2:3, :4])[1].trimmed()]
        picked = np.array([2, 0, 1, 2])
        gathered = KVCache.gather_from(parts, picked)
        assert (gathered.batch, gathered.length, gathered.capacity) == (4, 4, BLOCK)
        fresh = inf.start(ids[picked, :4])[1]
        for mine, theirs in zip(gathered.keys + gathered.values, fresh.keys + fresh.values):
            assert np.array_equal(mine, theirs)  # zeroed headroom included
        assert np.array_equal(
            inf.step(ids[picked, 4], gathered), inf.step(ids[picked, 4], fresh)
        )

    def test_single_cache_is_gather(self, inf, ids):
        cache = inf.start(ids[:3, :4])[1]
        picked = np.array([1, 1, 0])
        via = KVCache.gather_from([cache], picked)
        direct = cache.gather(picked)
        assert all(np.array_equal(a, b) for a, b in zip(via.keys, direct.keys))

    def test_lengths_must_agree(self, inf, ids):
        short = inf.start(ids[:1, :3])[1]
        long = inf.start(ids[:1, :4])[1]
        with pytest.raises(ValueError):
            KVCache.gather_from([short, long], [0, 1])

    def test_index_out_of_range(self, inf, ids):
        parts = [inf.start(ids[i : i + 1, :3])[1] for i in range(2)]
        for bad in ([2], [-1]):
            with pytest.raises(IndexError):
                KVCache.gather_from(parts, bad)

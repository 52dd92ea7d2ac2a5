"""Property tests for the best-first ordered enumerator.

The ordered backend's whole value is a *provable* contract — the stream
is the model's true top-k, in order, without duplicates.  These tests
check that contract from the outside:

* **brute force equivalence** — on a dim=16 model with deliberately tiny
  pattern spaces, full enumeration of every candidate password (scored
  through the *full-forward* ``inference.logits`` path, independent of
  the KV ``gather``/``extend`` path the enumerator uses) must agree with
  the ordered stream on both membership and scores;
* **monotonicity / uniqueness** — across beam widths and both prompt
  modes the emitted log-probs never increase and no password repeats;
* **beam-width invariance** — on an S_p whose prompts share one length,
  so rounds batch several prompts into one forward, passwords and
  scores are bitwise equal at beam widths 1, 8 and 64;
* **truncation accounting** — a frontier cap small enough to prune must
  show up in :class:`OrderedStats` and the metrics registry, never
  silently.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import telemetry
from repro.generation import OrderedConfig, OrderedGenerator, prompts_digest
from repro.generation.sampler import constrained_distribution
from repro.models import PagPassGPT
from repro.nn import GPT2Config
from repro.tokenizer.patterns import Pattern

from tests.goldens import SHARED_LENGTH_PATTERNS, build_model

#: Small enough to brute-force exhaustively: 52*10 + 10*10 = 620 strings.
TINY_PATTERNS = {"L1N1": 0.6, "N2": 0.4}


@pytest.fixture(scope="module")
def tiny_model() -> PagPassGPT:
    """dim=16 deterministic-weight model over a brute-forceable space."""
    model = PagPassGPT(
        model_config=GPT2Config(
            vocab_size=135, block_size=32, dim=16, n_layers=1, n_heads=2, dropout=0.0
        ),
        seed=3,
    )
    model._fitted = True
    model.pattern_probs = dict(TINY_PATTERNS)
    return model


def brute_force_scores(model: PagPassGPT) -> dict[str, float]:
    """Log-prob of EVERY password in the pattern mixture, full-forward.

    Deliberately shares no code with the enumerator's scoring loop: all
    candidates of a pattern are scored in one ``inference.logits`` call
    (no KV cache, no ``gather``, no ``extend``) and the per-position
    probabilities are read off the full logit cube.
    """
    tokenizer = model.tokenizer
    mass = sum(TINY_PATTERNS.values())
    out: dict[str, float] = {}
    for name, prob in TINY_PATTERNS.items():
        pattern = Pattern.parse(name)
        prior = math.log(prob / mass)
        prompt = np.asarray(tokenizer.encode_prompt(pattern), dtype=np.int64)
        allowed = [tokenizer.allowed_ids_at(pattern, i) for i in range(pattern.length)]
        # Cartesian product of the per-position alphabets.
        combos = np.array(np.meshgrid(*allowed, indexing="ij")).reshape(
            pattern.length, -1
        ).T
        ids = np.concatenate(
            [np.tile(prompt, (len(combos), 1)), combos], axis=1
        )
        logits = model.inference.logits(ids)  # (B, S, vocab)
        scores = np.full(len(combos), prior, dtype=np.float64)
        token_strs = tokenizer.vocab.token_array
        for position in range(pattern.length):
            step_logits = logits[:, len(prompt) - 1 + position, :]
            probs = constrained_distribution(step_logits, allowed[position])
            lookup = np.full(len(tokenizer.vocab), -1, dtype=np.int64)
            lookup[allowed[position]] = np.arange(len(allowed[position]))
            column = lookup[combos[:, position]]
            scores += np.log(
                probs[np.arange(len(combos)), column].astype(np.float64)
            )
        for row, score in zip(combos, scores):
            out["".join(token_strs[row])] = float(score)
    return out


class TestBruteForceEquivalence:
    def test_topk_matches_full_enumeration(self, tiny_model):
        """First k of the ordered stream == top-k of the whole space."""
        truth = brute_force_scores(tiny_model)
        ranked = sorted(truth.items(), key=lambda item: -item[1])
        k = 100
        gen = OrderedGenerator.for_patterns(
            tiny_model, config=OrderedConfig(beam_width=16, max_frontier=200_000)
        )
        stream = gen.generate_scored(k)
        assert gen.stats.truncated_nodes == 0  # exactness needs no pruning
        assert [pw for pw, _ in stream] == [pw for pw, _ in ranked[:k]]
        # The reference path (one full-forward attention pass) and the
        # enumerator's KV extend path accumulate float32 rounding in
        # different orders, so scores agree to ~1e-7, not bitwise.
        for (pw, got), (_, want) in zip(stream, ranked):
            assert got == pytest.approx(want, abs=1e-6), pw

    def test_exhaustive_stream_covers_whole_space(self, tiny_model):
        """Asking for more than exists yields every password exactly once."""
        truth = brute_force_scores(tiny_model)
        gen = OrderedGenerator.for_patterns(
            tiny_model, config=OrderedConfig(beam_width=64, max_frontier=200_000)
        )
        stream = gen.generate(len(truth) + 50)
        assert gen.stats.exhausted
        assert len(stream) == len(truth)
        assert set(stream) == set(truth)


class TestOrderingProperties:
    @pytest.mark.parametrize("beam_width", [1, 7, 64])
    def test_scores_non_increasing_and_unique(self, tiny_model, beam_width):
        gen = OrderedGenerator.for_patterns(
            tiny_model,
            config=OrderedConfig(beam_width=beam_width, max_frontier=200_000),
        )
        stream = gen.generate_scored(80)
        scores = [score for _, score in stream]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        passwords = [pw for pw, _ in stream]
        assert len(set(passwords)) == len(passwords)

    def test_stream_is_beam_width_invariant(self, tiny_model):
        """beam_width is a throughput knob: the emitted bytes don't move."""
        streams = [
            OrderedGenerator.for_patterns(
                tiny_model,
                config=OrderedConfig(beam_width=w, max_frontier=200_000),
            ).generate(60)
            for w in (1, 16)
        ]
        assert streams[0] == streams[1]

    def test_scores_are_beam_width_invariant_across_prompts(self):
        """Nodes of prompts that share a length ride one forward; a
        node's score must not depend on which nodes share its call, so
        passwords *and* scores agree bitwise at every beam width."""
        runs = [
            OrderedGenerator.for_patterns(
                build_model(SHARED_LENGTH_PATTERNS),
                config=OrderedConfig(beam_width=w, max_frontier=10**6),
            ).generate_scored(300)
            for w in (1, 8, 64)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_unconditional_mode_properties(self, tiny_model):
        """PassGPT-style mode: <EOS>-terminated, capped length, ordered."""
        gen = OrderedGenerator.unconditional(
            tiny_model,
            config=OrderedConfig(beam_width=16, max_chars=2, max_frontier=200_000),
        )
        stream = gen.generate_scored(40)
        scores = [score for _, score in stream]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        passwords = [pw for pw, _ in stream]
        assert len(set(passwords)) == len(passwords)
        assert all(len(pw) <= 2 for pw in passwords)


class TestTruncationAccounting:
    def test_frontier_cap_is_reported_not_silent(self, tiny_model):
        registry = telemetry.get_registry()
        before = registry.counter("ordered.truncated").value
        gen = OrderedGenerator.for_patterns(
            tiny_model, config=OrderedConfig(beam_width=8, max_frontier=16)
        )
        gen.generate(30)
        assert gen.stats.truncated_nodes > 0
        assert gen.stats.truncated_mass > 0.0
        assert registry.counter("ordered.truncated").value - before == (
            gen.stats.truncated_nodes
        )

    def test_exhaustion_is_flagged(self, tiny_model):
        """A drained frontier reports exhausted instead of spinning."""
        gen = OrderedGenerator.unconditional(
            tiny_model,
            config=OrderedConfig(beam_width=16, max_chars=1, max_frontier=200_000),
        )
        stream = gen.generate(1000)
        assert gen.stats.exhausted
        # <=1-char space: the empty password plus every single character.
        assert len(stream) == 1 + len(tiny_model.tokenizer.vocab.char_ids)


class TestConfigAndDigest:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beam_width": 0},
            {"beam_width": 32, "max_frontier": 16},
            {"snapshot_every": 0},
            {"max_patterns": 0},
            {"max_chars": 0},
        ],
    )
    def test_config_rejects_nonsense(self, kwargs):
        with pytest.raises(ValueError):
            OrderedConfig(**kwargs)

    def test_prompts_digest_tracks_priors_and_patterns(self, tiny_model):
        base = OrderedGenerator.for_patterns(tiny_model)
        same = OrderedGenerator.for_patterns(tiny_model)
        assert prompts_digest(base.prompts) == prompts_digest(same.prompts)
        other = OrderedGenerator.for_patterns(
            tiny_model, pattern_probs={"L1N1": 0.5, "N2": 0.5}
        )
        assert prompts_digest(base.prompts) != prompts_digest(other.prompts)

    def test_requires_pattern_distribution(self):
        model = PagPassGPT(
            model_config=GPT2Config(
                vocab_size=135, block_size=32, dim=16, n_layers=1, n_heads=2,
                dropout=0.0,
            ),
            seed=0,
        )
        model._fitted = True  # fitted but with an empty S_p
        with pytest.raises(ValueError, match="pattern distribution"):
            OrderedGenerator.for_patterns(model)

"""Integration tests for PagPassGPT and PassGPT (tiny trained models)."""

import numpy as np
import pytest

from repro.models import PagPassGPT, PagPassGPTDC, PassGPT, available_models, create_model
from repro.generation import DCGenConfig
from repro.tokenizer import Pattern, extract_pattern


class TestRegistry:
    def test_available_models(self):
        assert set(available_models()) >= {
            "pagpassgpt", "passgpt", "passgan", "vaepass", "passflow", "pcfg", "markov",
        }

    def test_create_by_name(self):
        assert create_model("PCFG").name == "PCFG"
        assert create_model("PagPassGPT").name == "PagPassGPT"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            create_model("gpt5")


class TestPagPassGPTGuided:
    def test_conformity(self, trained_pagpassgpt):
        pattern = Pattern.parse("L5N2")
        out = trained_pagpassgpt.generate_with_pattern(pattern, 64, seed=0)
        assert len(out) == 64
        assert all(pattern.matches(pw) for pw in out)

    def test_multi_segment_conformity(self, trained_pagpassgpt):
        pattern = Pattern.parse("L3S1N2S1")
        out = trained_pagpassgpt.generate_with_pattern(pattern, 32, seed=1)
        assert all(pattern.matches(pw) for pw in out)

    def test_deterministic_per_seed(self, trained_pagpassgpt):
        p = Pattern.parse("L4N2")
        assert trained_pagpassgpt.generate_with_pattern(p, 16, seed=5) == \
            trained_pagpassgpt.generate_with_pattern(p, 16, seed=5)

    def test_zero_n(self, trained_pagpassgpt):
        assert trained_pagpassgpt.generate_with_pattern(Pattern.parse("L4"), 0) == []

    def test_requires_fit(self):
        model = PagPassGPT()
        with pytest.raises(RuntimeError):
            model.generate_with_pattern(Pattern.parse("L4"), 4)


class TestPagPassGPTFree:
    def test_outputs_valid_cleanable_passwords(self, trained_pagpassgpt):
        out = trained_pagpassgpt.generate(128, seed=0)
        assert len(out) == 128
        for pw in out:
            assert len(pw) <= 12
            # Every free generation conforms to its own generated pattern,
            # so it is a visible-ASCII string.
            if pw:
                extract_pattern(pw)  # must not raise

    def test_pattern_probs_recorded(self, trained_pagpassgpt):
        assert trained_pagpassgpt.pattern_probs
        assert sum(trained_pagpassgpt.pattern_probs.values()) == pytest.approx(1.0)

    def test_history_recorded(self, trained_pagpassgpt):
        assert trained_pagpassgpt.history is not None
        assert len(trained_pagpassgpt.history.train_loss) == 2


class TestPassGPT:
    def test_free_generation(self, trained_passgpt):
        out = trained_passgpt.generate(128, seed=0)
        assert len(out) == 128
        # A row that never samples <EOS> is cut at the block boundary.
        assert all(len(pw) <= trained_passgpt.model_config.block_size - 1 for pw in out)

    def test_guided_conformity(self, trained_passgpt):
        pattern = Pattern.parse("L5S1N2")
        out = trained_passgpt.generate_with_pattern(pattern, 32, seed=0)
        assert all(pattern.matches(pw) for pw in out)

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            PassGPT().generate(4)

    def test_invalidate_inference_drops_the_snapshot(self, trained_passgpt):
        inference, cache = trained_passgpt.inference, trained_passgpt.prompt_cache
        before = trained_passgpt.generate(16, seed=3)
        trained_passgpt.invalidate_inference()
        assert trained_passgpt.inference is not inference
        assert trained_passgpt.prompt_cache is not cache
        assert trained_passgpt.generate(16, seed=3) == before


class TestPagPassGPTDC:
    def test_wrapper_delegates(self, trained_pagpassgpt, rockyou_tiny):
        dc = PagPassGPTDC(trained_pagpassgpt, DCGenConfig(threshold=32))
        dc.fit(rockyou_tiny["train_corpus"])  # no-op: base already fitted
        out = dc.generate(500, seed=0)
        assert len(out) > 300
        patterns = {extract_pattern(pw).string for pw in out if pw}
        assert patterns <= set(trained_pagpassgpt.pattern_probs)

    def test_lower_repeat_than_free(self, trained_pagpassgpt):
        dc = PagPassGPTDC(trained_pagpassgpt, DCGenConfig(threshold=32))
        free = trained_pagpassgpt.generate(1500, seed=0)
        divided = dc.generate(1500, seed=0)

        def rep(g):
            return 1 - len(set(g)) / len(g)

        assert rep(divided) <= rep(free) + 0.02

    def test_guided_delegates_to_base(self, trained_pagpassgpt):
        dc = PagPassGPTDC(trained_pagpassgpt)
        p = Pattern.parse("L4N2")
        assert dc.generate_with_pattern(p, 8, seed=1) == \
            trained_pagpassgpt.generate_with_pattern(p, 8, seed=1)


class TestCheckpointIntegration:
    def test_save_load_preserves_generation(self, trained_pagpassgpt, tmp_path):
        from repro.nn import GPT2Config, load_checkpoint, save_checkpoint

        path = tmp_path / "pag.npz"
        save_checkpoint(
            trained_pagpassgpt.model, path,
            meta={"pattern_probs": trained_pagpassgpt.pattern_probs},
        )
        clone = PagPassGPT(
            model_config=trained_pagpassgpt.model_config,
            seed=123,  # different init, will be overwritten
        )
        meta = load_checkpoint(clone.model, path)
        clone.pattern_probs = meta["pattern_probs"]
        clone._fitted = True
        clone.model.eval()
        p = Pattern.parse("L4N2")
        assert clone.generate_with_pattern(p, 8, seed=7) == \
            trained_pagpassgpt.generate_with_pattern(p, 8, seed=7)


class TestSaveLoadAPI:
    def test_pagpassgpt_save_load(self, trained_pagpassgpt, tmp_path):
        path = tmp_path / "pag_api.npz"
        trained_pagpassgpt.save(path)
        clone = PagPassGPT.load(path)
        assert clone.is_fitted
        assert clone.pattern_probs == trained_pagpassgpt.pattern_probs
        p = Pattern.parse("L4N2")
        assert clone.generate_with_pattern(p, 6, seed=3) == \
            trained_pagpassgpt.generate_with_pattern(p, 6, seed=3)

    def test_passgpt_save_load(self, trained_passgpt, tmp_path):
        path = tmp_path / "pass_api.npz"
        trained_passgpt.save(path)
        clone = PassGPT.load(path)
        assert clone.generate(6, seed=3) == trained_passgpt.generate(6, seed=3)

    def test_kind_mismatch_rejected(self, trained_passgpt, tmp_path):
        path = tmp_path / "pass_api2.npz"
        trained_passgpt.save(path)
        with pytest.raises(ValueError):
            PagPassGPT.load(path)

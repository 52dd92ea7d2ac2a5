"""PassGPT baseline (Rando et al. 2023) — GPT-2 over bare passwords.

Training uses ``<BOS> password <EOS>`` with no pattern information.
Pattern guided guessing is done the way the paper describes PassGPT doing
it (§I-A1): at each position, candidate tokens are *filtered* to the class
the pattern prescribes and the remaining mass renormalised.  Because the
model never sees the pattern, it cannot plan ahead — producing the word
truncation artifact of Table III ("polic#10").
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from ..datasets.corpus import PasswordCorpus
from ..generation.sampler import GEN_BATCH, SamplerConfig, sample_constrained
from ..nn import GPT2Config, GPT2Inference, GPT2Model, PromptCache
from ..runtime import Budget, RunJournal
from ..tokenizer.patterns import Pattern
from ..tokenizer.tokenizer import PasswordOnlyTokenizer
from ..training import TrainConfig, TrainHistory, Trainer
from .base import PatternGuidedGuesser


class PassGPT(PatternGuidedGuesser):
    """The state-of-the-art baseline the paper compares against."""

    name = "PassGPT"

    def __init__(
        self,
        model_config: Optional[GPT2Config] = None,
        train_config: Optional[TrainConfig] = None,
        sampler: SamplerConfig = SamplerConfig(),
        seed: int = 0,
    ) -> None:
        self.tokenizer = PasswordOnlyTokenizer()
        self.model_config = model_config or GPT2Config(
            vocab_size=len(self.tokenizer.vocab),
            block_size=self.tokenizer.block_size,
            dim=96,
            n_layers=3,
            n_heads=4,
            dropout=0.1,
        )
        self.train_config = train_config or TrainConfig()
        self.sampler = sampler
        self.model = GPT2Model(self.model_config, seed=seed)
        self.history: Optional[TrainHistory] = None
        self._inference: Optional[GPT2Inference] = None
        self._prompt_cache: Optional[PromptCache] = None
        self._fitted = False

    def fit(
        self,
        corpus: PasswordCorpus,
        val_passwords: Optional[list[str]] = None,
        log_fn=None,
        checkpoint_path=None,
        resume_from=None,
        budget=None,
    ) -> "PassGPT":
        train_ids = self.tokenizer.encode_corpus(corpus.passwords)
        val_ids = (
            self.tokenizer.encode_corpus(val_passwords) if val_passwords else None
        )
        trainer = Trainer(
            self.model, pad_id=self.tokenizer.vocab.pad_id,
            config=self.train_config, log_fn=log_fn,
        )
        self.history = trainer.fit(
            train_ids, val_ids,
            checkpoint_path=checkpoint_path, resume_from=resume_from,
            budget=budget,
        )
        self._fitted = True
        self._inference = None
        self._prompt_cache = None
        return self

    @property
    def inference(self) -> GPT2Inference:
        if self._inference is None:
            self.model.eval()
            self._inference = GPT2Inference(self.model)
        return self._inference

    @property
    def prompt_cache(self) -> PromptCache:
        """Memoised prompt KV states (every batch starts from ``<BOS>``)."""
        if self._prompt_cache is None:
            self._prompt_cache = PromptCache(self.inference)
        return self._prompt_cache


    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write weights + config to an npz checkpoint."""
        from dataclasses import asdict

        from ..nn import save_checkpoint

        save_checkpoint(
            self.model,
            path,
            meta={
                "kind": self.name,
                "config": asdict(self.model_config),
                },
        )

    @classmethod
    def load(cls, path) -> "PassGPT":
        """Rebuild a fitted model from :meth:`save` output.

        Raises :class:`repro.nn.CheckpointError` on a missing, truncated,
        or otherwise unreadable checkpoint file.
        """
        from ..nn import load_checkpoint, read_checkpoint_meta

        meta = read_checkpoint_meta(path)
        if meta.get("kind") != cls.name:
            raise ValueError(f"checkpoint is a {meta.get('kind')!r} model, not {cls.name}")
        model = cls(model_config=GPT2Config(**meta["config"]))
        load_checkpoint(model.model, path)
        model._fitted = True
        model.model.eval()
        return model

    # ------------------------------------------------------------------
    def generate(
        self,
        n: int,
        seed: int = 0,
        workers: int = 1,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        budget: Optional[Budget] = None,
    ) -> list[str]:
        """Unconditional sampling from ``<BOS>`` until ``<EOS>``.

        The ``sampled`` strategy's campaign, exactly as for
        :meth:`PagPassGPT.generate <repro.models.PagPassGPT.generate>`:
        ``(seed, chunk_index)`` randomness per ``GEN_BATCH`` chunk, so
        ``workers``, ``journal``/``resume``, ``progress`` and ``budget``
        behave the same and the stream does not depend on them.
        """
        from ..generation.campaign import generate_sampled

        self._require_fitted(self._fitted)
        return generate_sampled(
            self, n, seed, workers, journal, resume, progress, budget
        )

    def sample_free_batch(self, batch: int, rng: np.random.Generator) -> list[str]:
        """Decode ``batch`` rows from ``<BOS>`` with one rng.

        Sampling is restricted to character tokens plus ``<EOS>``: the
        shared vocabulary also contains pattern tokens this model never
        trains on, whose random-init logits would otherwise pollute the
        decode (a no-op for a converged model).
        """
        vocab = self.tokenizer.vocab
        allowed = np.concatenate(
            [np.array([vocab.eos_id], dtype=np.int64), np.array(vocab.char_ids, dtype=np.int64)]
        )
        max_steps = self.model_config.block_size - 1
        bos = np.array([vocab.bos_id], dtype=np.int64)
        logits, cache = self.prompt_cache.expand(bos, batch)
        sequences = np.full((batch, max_steps), vocab.pad_id, dtype=np.int64)
        alive = np.ones(batch, dtype=bool)
        for step in range(max_steps):
            chosen = sample_constrained(logits, allowed, rng, self.sampler)
            chosen = np.where(alive, chosen, vocab.eos_id)
            sequences[:, step] = chosen
            alive &= chosen != vocab.eos_id
            if not alive.any() or step + 1 == max_steps:
                break
            logits = self.inference.step(chosen, cache)
        return [self.tokenizer.decode(row) for row in sequences]

    def generate_with_pattern(self, pattern: Pattern, n: int, seed: int = 0) -> list[str]:
        """Guided generation by per-step token filtering (the PassGPT way)."""
        self._require_fitted(self._fitted)
        if n <= 0:
            return []
        rng = np.random.default_rng(seed)
        vocab = self.tokenizer.vocab
        classes = pattern.char_classes()
        out: list[str] = []
        bos = np.array([vocab.bos_id], dtype=np.int64)
        token_strs = vocab.token_array
        for start in range(0, n, GEN_BATCH):
            batch = min(GEN_BATCH, n - start)
            logits, cache = self.prompt_cache.expand(bos, batch)
            chosen_cols = np.empty((batch, len(classes)), dtype=np.int64)
            for position, cls in enumerate(classes):
                allowed = self.tokenizer.class_char_ids[cls]
                chosen = sample_constrained(logits, allowed, rng, self.sampler)
                chosen_cols[:, position] = chosen
                if position + 1 < len(classes):
                    logits = self.inference.step(chosen, cache)
            out.extend("".join(row) for row in token_strs[chosen_cols].tolist())
        return out

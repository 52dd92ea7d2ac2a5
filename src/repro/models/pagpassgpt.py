"""PagPassGPT — pattern guided password guessing via GPT-2 (§III-B).

Training: each password is preprocessed into the rule
``<BOS> pattern <SEP> password <EOS>`` so the model learns
``Pr(t_1..t_n | P)`` auto-regressively (eq. 1).

Generation:

* *pattern guided* — the prompt ``<BOS> pattern <SEP>`` conditions the
  whole password on the pattern; per-position constraint masks guarantee
  conformity (the same filter D&C-GEN applies in Fig. 7);
* *free* (trawling "approach 1", §IV-D) — the model is fed only ``<BOS>``
  and generates the pattern and password itself.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from ..datasets.corpus import PasswordCorpus
from ..generation.sampler import GEN_BATCH, SamplerConfig, sample_constrained, sample_masked
from ..nn import GPT2Config, GPT2Inference, GPT2Model, PromptCache
from ..runtime import Budget, RunJournal
from ..tokenizer.patterns import Pattern
from ..tokenizer.tokenizer import PasswordTokenizer
from ..training import TrainConfig, TrainHistory, Trainer
from .base import PatternGuidedGuesser

class PagPassGPT(PatternGuidedGuesser):
    """The paper's model: GPT-2 conditioned on PCFG patterns."""

    name = "PagPassGPT"

    def __init__(
        self,
        model_config: Optional[GPT2Config] = None,
        train_config: Optional[TrainConfig] = None,
        sampler: SamplerConfig = SamplerConfig(),
        seed: int = 0,
        tokenizer: Optional[PasswordTokenizer] = None,
    ) -> None:
        self.tokenizer = tokenizer or PasswordTokenizer()
        self.model_config = model_config or GPT2Config(
            vocab_size=len(self.tokenizer.vocab),
            block_size=self.tokenizer.block_size,
            dim=96,
            n_layers=3,
            n_heads=4,
            dropout=0.1,
        )
        if self.model_config.vocab_size != len(self.tokenizer.vocab):
            raise ValueError("model vocab_size must match the tokenizer vocabulary")
        self.train_config = train_config or TrainConfig()
        self.sampler = sampler
        self.model = GPT2Model(self.model_config, seed=seed)
        self.history: Optional[TrainHistory] = None
        self._inference: Optional[GPT2Inference] = None
        self._prompt_cache: Optional[PromptCache] = None
        self._fitted = False
        #: Pattern distribution of the training corpus (D&C-GEN's S_p).
        self.pattern_probs: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        corpus: PasswordCorpus,
        val_passwords: Optional[list[str]] = None,
        log_fn=None,
        checkpoint_path=None,
        resume_from=None,
        budget: Optional[Budget] = None,
    ) -> "PagPassGPT":
        """Train on rules built from ``corpus``; records its S_p for D&C-GEN.

        ``checkpoint_path`` enables per-epoch crash-safe training state;
        ``resume_from`` continues an interrupted run from such a state
        file, and ``budget`` converts deadlines/signals into a graceful
        epoch-boundary stop (see :meth:`repro.training.Trainer.fit`).
        """
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
        self.pattern_probs = dict(corpus.pattern_probs)
        self._fitted = True
        self._inference = None
        self._prompt_cache = None
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._fitted

    @property
    def inference(self) -> GPT2Inference:
        """Numpy inference engine over the current weights (lazily built)."""
        if self._inference is None:
            self.model.eval()
            self._inference = GPT2Inference(self.model)
        return self._inference

    @property
    def prompt_cache(self) -> PromptCache:
        """Memoised prompt KV states shared by every generation path.

        ``<BOS> pattern <SEP>`` prompts (and the bare ``<BOS>`` of free
        generation) are primed once and fanned out per batch; under the
        ``fork`` start method worker processes inherit warm entries
        copy-on-write.
        """
        if self._prompt_cache is None:
            self._prompt_cache = PromptCache(self.inference)
        return self._prompt_cache

    def invalidate_inference(self) -> None:
        """Drop the cached inference snapshot (call after further training)."""
        self._inference = None
        self._prompt_cache = None


    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write weights + config + S_p to an npz checkpoint."""
        from dataclasses import asdict

        from ..nn import save_checkpoint

        save_checkpoint(
            self.model,
            path,
            meta={
                "kind": self.name,
                "config": asdict(self.model_config),
                "pattern_probs": self.pattern_probs,
            },
        )

    @classmethod
    def load(cls, path) -> "PagPassGPT":
        """Rebuild a fitted model from :meth:`save` output.

        Raises :class:`~repro.nn.CheckpointError` for truncated/corrupt
        files and ``ValueError`` when the checkpoint holds another model
        kind.
        """
        from ..nn import load_checkpoint, read_checkpoint_meta

        # Peek at the metadata first to build the right architecture.
        meta = read_checkpoint_meta(path)
        if meta.get("kind") != cls.name:
            raise ValueError(f"checkpoint is a {meta.get('kind')!r} model, not {cls.name}")
        model = cls(model_config=GPT2Config(**meta["config"]))
        load_checkpoint(model.model, path)
        model.pattern_probs = meta["pattern_probs"]
        model._fitted = True
        model.model.eval()
        return model

    # ------------------------------------------------------------------
    # Pattern guided generation
    # ------------------------------------------------------------------
    def generate_with_pattern(self, pattern: Pattern, n: int, seed: int = 0) -> list[str]:
        """Generate ``n`` passwords conforming to ``pattern`` (Fig. 3 right)."""
        self._require_fitted(self._fitted)
        if n <= 0:
            return []
        rng = np.random.default_rng(seed)
        out: list[str] = []
        prompt = np.asarray(self.tokenizer.encode_prompt(pattern), dtype=np.int64)
        for start in range(0, n, GEN_BATCH):
            batch = min(GEN_BATCH, n - start)
            out.extend(self._complete_prefix(pattern, prompt, batch, rng))
        return out

    def _complete_prefix(
        self,
        pattern: Pattern,
        prefix_ids: np.ndarray,
        batch: int,
        rng: np.random.Generator,
    ) -> list[str]:
        """Sample ``batch`` completions of a rule prefix under the pattern.

        ``prefix_ids`` must start with ``<BOS> pattern <SEP>`` and may
        already contain password characters (D&C-GEN leaf prefixes).
        """
        prompt_len = pattern.num_segments + 2  # <BOS> pattern <SEP>
        done_chars = len(prefix_ids) - prompt_len
        # All rows share the prefix: prime it once, fan out the KV state.
        logits, cache = self.prompt_cache.expand(prefix_ids, batch)
        token_strs = self.tokenizer.vocab.token_array
        n_positions = pattern.length - done_chars
        chosen_cols = np.empty((batch, n_positions), dtype=np.int64)
        for j, position in enumerate(range(done_chars, pattern.length)):
            allowed = self.tokenizer.allowed_ids_at(pattern, position)
            chosen = sample_constrained(logits, allowed, rng, self.sampler)
            chosen_cols[:, j] = chosen
            if position + 1 < pattern.length:
                logits = self.inference.step(chosen, cache)
        prefix_chars = np.tile(prefix_ids[prompt_len:], (batch, 1))
        all_chars = np.concatenate([prefix_chars, chosen_cols], axis=1)
        return ["".join(row) for row in token_strs[all_chars].tolist()]

    # ------------------------------------------------------------------
    # Free (trawling) generation
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
        """Trawling approach 1: feed only ``<BOS>``, model writes the rest.

        Decoding is *grammar-constrained* to the training rule format
        ``pattern <SEP> password <EOS>``: during the pattern phase only
        valid continuations of a PCFG pattern are allowed (alternating
        classes, total length <= 12), and during the password phase only
        characters of the class the self-generated pattern prescribes.
        For a converged model the mask is a no-op (training data always
        conforms); for the scaled-down models it removes decode artifacts
        from never-trained tokens such as ``<UNK>``/``<PAD>``.

        This is the ``sampled`` strategy's campaign
        (:func:`~repro.generation.campaign.generate_sampled`): each
        ``GEN_BATCH`` chunk draws its randomness from ``(seed,
        chunk_index)``, so the stream is identical for any ``workers``
        count; ``workers > 1`` shards chunks across a supervised process
        pool.  ``journal`` (path or open :class:`RunJournal`) makes the
        run resumable: with ``resume=True`` journaled chunks are reused
        and the merged stream is byte-identical to an uninterrupted run.
        ``progress(done_rows, total_rows)`` fires after every completed
        chunk, and ``budget`` (a :class:`~repro.runtime.Budget`) is
        polled after every durable chunk, converting deadlines, guess
        quotas, and graceful-shutdown signals into a
        :class:`~repro.runtime.CampaignInterrupted` whose completed work
        is already journaled.
        """
        from ..generation.campaign import generate_sampled

        self._require_fitted(self._fitted)
        return generate_sampled(
            self, n, seed, workers, journal, resume, progress, budget
        )

    def sample_free_batch(self, batch: int, rng: np.random.Generator) -> list[str]:
        """Decode ``batch`` free rows from ``<BOS>`` with one rng."""
        tokenizer = self.tokenizer
        vocab = tokenizer.vocab
        max_len = tokenizer.max_password_length
        # Every row starts from the same bare <BOS>: prime once, fan out.
        logits, cache = self.prompt_cache.expand(
            np.array([vocab.bos_id], dtype=np.int64), batch
        )

        # Per-row decode state.
        in_pattern = np.ones(batch, dtype=bool)
        done = np.zeros(batch, dtype=bool)
        used_len = np.zeros(batch, dtype=np.int64)  # pattern length so far
        last_class = [""] * batch
        char_classes: list[list[str]] = [[] for _ in range(batch)]
        position = np.zeros(batch, dtype=np.int64)  # password cursor
        passwords: list[list[str]] = [[] for _ in range(batch)]

        vocab_size = len(vocab)
        max_steps = self.model_config.block_size - 1
        for _ in range(max_steps):
            mask = np.zeros((batch, vocab_size), dtype=bool)
            for row in range(batch):
                if done[row]:
                    mask[row, vocab.eos_id] = True
                elif in_pattern[row]:
                    remaining = max_len - used_len[row]
                    for cls, by_len in tokenizer.pattern_token_id.items():
                        if cls == last_class[row]:
                            continue
                        for length in range(1, remaining + 1):
                            mask[row, by_len[length]] = True
                    if used_len[row] > 0:
                        mask[row, vocab.sep_id] = True
                else:
                    pos = position[row]
                    classes = char_classes[row]
                    if pos < len(classes):
                        mask[row, tokenizer.class_char_ids[classes[pos]]] = True
                    else:
                        mask[row, vocab.eos_id] = True
            chosen = sample_masked(logits, mask, rng, self.sampler)
            for row, token_id in enumerate(chosen):
                token_id = int(token_id)
                if done[row]:
                    continue
                if token_id == vocab.eos_id:
                    done[row] = True
                elif token_id == vocab.sep_id:
                    in_pattern[row] = False
                elif in_pattern[row]:
                    cls, length = tokenizer.pattern_token_info[token_id]
                    used_len[row] += length
                    last_class[row] = cls
                    char_classes[row].extend(cls * length)
                else:
                    passwords[row].append(vocab.token_of(token_id))
                    position[row] += 1
            if done.all():
                break
            logits = self.inference.step(chosen, cache)
        return ["".join(chars) for chars in passwords]

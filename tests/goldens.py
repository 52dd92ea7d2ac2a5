"""Golden-stream fixtures for the inference fast path.

The D&C-GEN and free-generation guess streams are part of the repo's
compatibility contract: perf work on the inference path (KV priming,
decode kernels, batching) must never change a single sampled byte.  This
module pins that contract to committed fixtures:

* :func:`build_model` constructs the deterministic reference model
  (fixed-seed random weights — sampling equivalence must hold for any
  next-token distribution, so training is unnecessary);
* :func:`generate_streams` produces the reference streams through the
  *public* generation API only, so the exact same script reproduces the
  goldens at any commit;
* running ``PYTHONPATH=src python tests/goldens.py`` regenerates
  ``tests/golden/streams.json``.  Only regenerate after a change that is
  *meant* to alter sampling (e.g. a new sampler), never for a pure
  optimisation — the whole point is that optimisations keep these bytes.

``tests/test_generation_golden.py`` asserts current code reproduces the
committed fixture for workers 1/2 and several ``gen_batch`` widths.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden" / "streams.json"

#: Reference campaign parameters.  Scale is chosen so the full golden
#: suite (4 D&C-GEN runs + 2 free runs) stays test-suite friendly while
#: still covering thousands of sampled positions.
SPEC = {
    "model": {"dim": 64, "n_layers": 2, "n_heads": 4, "seed": 0},
    "pattern_probs": {"L4N2": 0.4, "N6": 0.3, "L3S1N2": 0.2, "L8": 0.1},
    "dcgen": {"total": 1500, "seed": 11, "threshold": 48},
    "free": {"n": 700, "seed": 13},
    "ordered": {"n": 120, "beam_width": 32, "max_frontier": 5000},
}

#: The PassGPT baseline's reference campaigns, kept apart from
#: :data:`SPEC` so the fixture's original keys stay byte-identical.
PASSGPT_SPEC = {
    "model": {"dim": 64, "n_layers": 2, "n_heads": 4, "seed": 0},
    "sampled": {"n": 700, "seed": 13},
    "ordered": {"n": 120, "beam_width": 32, "max_frontier": 5000},
}


def build_model():
    """The fixed reference model: deterministic weights, hand-made S_p."""
    from repro.models import PagPassGPT
    from repro.nn import GPT2Config

    spec = SPEC["model"]
    model = PagPassGPT(
        model_config=GPT2Config(
            vocab_size=135,
            block_size=32,
            dim=spec["dim"],
            n_layers=spec["n_layers"],
            n_heads=spec["n_heads"],
            dropout=0.0,
        ),
        seed=spec["seed"],
    )
    model._fitted = True
    model.pattern_probs = dict(SPEC["pattern_probs"])
    return model


def build_passgpt():
    """The fixed PassGPT reference model: deterministic weights."""
    from repro.models import PassGPT
    from repro.nn import GPT2Config

    spec = PASSGPT_SPEC["model"]
    model = PassGPT(
        model_config=GPT2Config(
            vocab_size=135,
            block_size=16,
            dim=spec["dim"],
            n_layers=spec["n_layers"],
            n_heads=spec["n_heads"],
            dropout=0.0,
        ),
        seed=spec["seed"],
    )
    model._fitted = True
    return model


def generate_passgpt_streams(workers: int = 1) -> dict:
    """PassGPT sampled + ordered streams via the strategy registry."""
    from repro.generation import STRATEGIES, CampaignOptions, OrderedConfig

    model = build_passgpt()
    sampled = PASSGPT_SPEC["sampled"]
    ordered = PASSGPT_SPEC["ordered"]
    return {
        "sampled": STRATEGIES["sampled"].run(
            model, sampled["n"], CampaignOptions(seed=sampled["seed"], workers=workers)
        )[0],
        "ordered": STRATEGIES["ordered"].run(
            model, ordered["n"], CampaignOptions(workers=workers, ordered=OrderedConfig(
                beam_width=ordered["beam_width"], max_frontier=ordered["max_frontier"],
            )),
        )[0],
    }


def ordered_config(snapshot_every: int = 4):
    """The reference ordered-enumeration config.

    ``snapshot_every`` is deliberately NOT part of :data:`SPEC`: journal
    cadence must never change the emitted bytes, and the golden resume
    tests exploit that by crashing runs at several intervals.
    """
    from repro.generation import OrderedConfig

    spec = SPEC["ordered"]
    return OrderedConfig(
        beam_width=spec["beam_width"],
        max_frontier=spec["max_frontier"],
        snapshot_every=snapshot_every,
    )


def generate_ordered_stream(snapshot_every: int = 4, journal=None, resume=False):
    """Reference ordered stream via the public generation API."""
    from repro.generation import OrderedGenerator

    gen = OrderedGenerator.for_patterns(
        build_model(), config=ordered_config(snapshot_every)
    )
    return gen.generate(SPEC["ordered"]["n"], journal=journal, resume=resume)


def generate_streams(workers: int = 1, gen_batch: int | None = None) -> dict:
    """Reference D&C-GEN + free + ordered streams via the public API."""
    from repro.generation import DCGenConfig, DCGenerator, plan_digest
    from repro.generation.sampler import GEN_BATCH

    model = build_model()
    dc = SPEC["dcgen"]
    config = DCGenConfig(
        threshold=dc["threshold"],
        gen_batch=gen_batch or GEN_BATCH,
        workers=workers,
    )
    gen = DCGenerator(model, config)
    dcgen_stream = gen.generate(dc["total"], seed=dc["seed"])
    digest = plan_digest(gen.leaf_tasks)
    free_stream = model.generate(SPEC["free"]["n"], seed=SPEC["free"]["seed"], workers=workers)
    ordered_stream = generate_ordered_stream()
    passgpt = generate_passgpt_streams(workers)
    return {
        # The PassGPT keys come first so adding them left every original
        # line of the committed fixture untouched.
        "passgpt_spec": PASSGPT_SPEC,
        "passgpt_sampled": passgpt["sampled"],
        "passgpt_sampled_sha256": _sha256(passgpt["sampled"]),
        "passgpt_ordered": passgpt["ordered"],
        "passgpt_ordered_sha256": _sha256(passgpt["ordered"]),
        "spec": SPEC,
        "plan_digest": digest,
        "dcgen": dcgen_stream,
        "dcgen_sha256": hashlib.sha256("\n".join(dcgen_stream).encode()).hexdigest(),
        "free": free_stream,
        "free_sha256": hashlib.sha256("\n".join(free_stream).encode()).hexdigest(),
        "ordered": ordered_stream,
        "ordered_sha256": hashlib.sha256("\n".join(ordered_stream).encode()).hexdigest(),
    }


def _sha256(stream: list[str]) -> str:
    return hashlib.sha256("\n".join(stream).encode()).hexdigest()


def main() -> None:
    streams = generate_streams()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(streams, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    print(f"  dcgen:   {len(streams['dcgen'])} guesses, sha {streams['dcgen_sha256'][:16]}")
    print(f"  free:    {len(streams['free'])} guesses, sha {streams['free_sha256'][:16]}")
    print(f"  ordered: {len(streams['ordered'])} guesses, sha {streams['ordered_sha256'][:16]}")
    for key in ("passgpt_sampled", "passgpt_ordered"):
        print(f"  {key}: {len(streams[key])} guesses, sha {streams[key + '_sha256'][:16]}")
    print(f"  plan digest: {streams['plan_digest']}")


if __name__ == "__main__":
    main()

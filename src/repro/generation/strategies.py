"""The strategy registry: every generation strategy, listed once.

:data:`STRATEGIES` maps each strategy name to what the library, the CLI
(``repro generate --strategy``), the campaign server and the chaos
harness need to know about it: the model families it runs on, the
campaign kind its telemetry and journal header carry, the journal
record kind of its durable unit (which is also its fault-injection
site), and how to run it.  :func:`load_model` is the one checkpoint
loader those entry points share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Union

if TYPE_CHECKING:
    from ..runtime import Budget, RunJournal
    from .ordered import OrderedConfig


@dataclass(frozen=True)
class CampaignOptions:
    """Everything an entry point may set on a campaign.

    ``threshold`` only shapes D&C-GEN and ``ordered`` only the ordered
    enumerator (``None``: its defaults); the ordered enumerator is
    serial and ignores ``seed`` and ``workers``.
    """

    seed: int = 0
    workers: int = 1
    threshold: int = 256
    ordered: Optional["OrderedConfig"] = None
    journal: Optional[Union[str, Path, "RunJournal"]] = None
    resume: bool = False
    progress: Optional[Callable[[int, int], None]] = None
    budget: Optional["Budget"] = None


@dataclass(frozen=True)
class Strategy:
    """One registry entry; see the module docstring."""

    name: str
    families: tuple[str, ...]
    kind: str
    record: str
    #: ``runner(model, n, options) -> (guesses, stats line or None)``
    runner: Callable = field(repr=False)

    def check(self, family: str) -> None:
        """Raise ``ValueError`` unless models of ``family`` run this strategy."""
        if family not in self.families:
            raise ValueError(
                f"strategy {self.name} requires a {' or '.join(self.families)} "
                f"checkpoint, not {family}"
            )

    def run(
        self, model, n: int, options: CampaignOptions = CampaignOptions()
    ) -> tuple[list[str], Optional[str]]:
        """Run a campaign: the guesses plus a one-line stats summary."""
        self.check(model.name)
        return self.runner(model, n, options)


def _run_sampled(model, n: int, o: CampaignOptions):
    guesses = model.generate(
        n, seed=o.seed, workers=o.workers, journal=o.journal, resume=o.resume,
        progress=o.progress, budget=o.budget,
    )
    return guesses, None


def _run_dcgen(model, n: int, o: CampaignOptions):
    from .dcgen import DCGenConfig, DCGenerator

    generator = DCGenerator(model, DCGenConfig(threshold=o.threshold, workers=o.workers))
    guesses = generator.generate(
        n, seed=o.seed, journal=o.journal, resume=o.resume, progress=o.progress,
        budget=o.budget,
    )
    stats = generator.stats
    return guesses, (
        f"D&C-GEN: {stats.patterns_used} patterns, {stats.leaves} leaves, "
        f"{stats.divisions} divisions, {o.workers} worker(s)"
    )


def _run_ordered(model, n: int, o: CampaignOptions):
    from .ordered import OrderedConfig, OrderedGenerator

    config = o.ordered or OrderedConfig()
    if model.name == "PagPassGPT":
        generator = OrderedGenerator.for_patterns(model, config=config)
    else:
        generator = OrderedGenerator.unconditional(model, config=config)
    guesses = generator.generate(
        n, journal=o.journal, resume=o.resume, progress=o.progress, budget=o.budget
    )
    stats = generator.stats
    return guesses, (
        f"ordered: {stats.rounds} rounds, {stats.pops} pops, "
        f"{stats.model_calls} model calls, "
        f"{stats.truncated_nodes} frontier nodes truncated "
        f"({stats.truncated_mass:.3g} mass)"
    )


#: The model families :func:`load_model` returns.
FAMILIES = ("PagPassGPT", "PassGPT")

STRATEGIES: dict[str, Strategy] = {
    s.name: s
    for s in (
        Strategy("sampled", FAMILIES, "free", "free_chunk", _run_sampled),
        Strategy("dcgen", ("PagPassGPT",), "dcgen", "leaf_batch", _run_dcgen),
        Strategy("ordered", FAMILIES, "ordered", "frontier", _run_ordered),
    )
}


def load_model(path: Union[str, Path]):
    """Load whichever GPT model family the checkpoint holds.

    Raises :class:`~repro.nn.CheckpointError` for an unreadable file and
    ``ValueError`` when the checkpoint holds neither family.
    """
    from ..models import PagPassGPT, PassGPT

    try:
        return PagPassGPT.load(path)
    except ValueError:
        return PassGPT.load(path)

"""Generation machinery: samplers, D&C-GEN, ordered search, parallel backend,
the campaign runner and the strategy registry."""

from .campaign import (
    Campaign,
    CampaignPlan,
    free_chunks,
    generate_sampled,
    run_campaign,
    run_free_chunk,
)
from .dcgen import (
    DCGenConfig,
    DCGenStats,
    DCGenerator,
    LeafBatch,
    LeafTask,
    build_batches,
    execute_batch,
    leaf_rng,
    plan_digest,
    planned_execute_costs,
    remaining_search_space,
)
from .ordered import (
    OrderedConfig,
    OrderedGenerator,
    OrderedPrompt,
    OrderedStats,
    prompts_digest,
)
from .parallel import execute_parallel
from .sampler import (
    SamplerConfig,
    choose_constrained,
    constrained_distribution,
    logits_to_probs,
    sample,
    sample_constrained,
)
from .strategies import FAMILIES, STRATEGIES, CampaignOptions, Strategy, load_model

__all__ = [
    "Campaign",
    "CampaignPlan",
    "free_chunks",
    "generate_sampled",
    "run_campaign",
    "run_free_chunk",
    "DCGenConfig",
    "DCGenStats",
    "DCGenerator",
    "LeafBatch",
    "LeafTask",
    "build_batches",
    "execute_batch",
    "leaf_rng",
    "plan_digest",
    "planned_execute_costs",
    "remaining_search_space",
    "OrderedConfig",
    "OrderedGenerator",
    "OrderedPrompt",
    "OrderedStats",
    "prompts_digest",
    "execute_parallel",
    "FAMILIES",
    "STRATEGIES",
    "CampaignOptions",
    "Strategy",
    "load_model",
    "SamplerConfig",
    "choose_constrained",
    "constrained_distribution",
    "logits_to_probs",
    "sample",
    "sample_constrained",
]

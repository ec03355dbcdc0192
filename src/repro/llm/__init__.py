"""LLM substrate: interfaces, simulated models, knowledge, profiles, fine-tuning."""

from .base import Completion, EchoLLM, LanguageModel, UsageDelta, UsageTracker
from .cache import CacheBackend, CachedLLM, prompt_key
from .finetune import FineTuneReport, FineTuner, LabeledPair
from .knowledge import Fact, WorldKnowledge
from .profiles import DEFAULT_MODEL, MODEL_REGISTRY, ModelProfile, get_profile, list_models
from .simulated import SimulatedLLM
from .tokenizer import DEFAULT_TOKENIZER, SimpleTokenizer, count_tokens

__all__ = [
    "CacheBackend",
    "CachedLLM",
    "Completion",
    "DEFAULT_MODEL",
    "DEFAULT_TOKENIZER",
    "EchoLLM",
    "Fact",
    "FineTuneReport",
    "FineTuner",
    "LabeledPair",
    "LanguageModel",
    "MODEL_REGISTRY",
    "ModelProfile",
    "SimpleTokenizer",
    "SimulatedLLM",
    "UsageDelta",
    "UsageTracker",
    "WorldKnowledge",
    "count_tokens",
    "get_profile",
    "list_models",
    "prompt_key",
]

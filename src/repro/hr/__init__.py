"""The YourJourney HR domain: data, models, agents, and applications."""

from .clustering import Cluster, cluster_seekers
from .data import (
    Enterprise,
    build_enterprise,
    build_sharded_enterprise,
    generate_applications_fast,
    generate_seekers_fast,
)
from .matching import JobMatcher, MatchResult
from .nlq import NLQTranslator, Translation
from .skills import SkillExtractor, SkillMention
from .taxonomy import base_titles, build_title_taxonomy

__all__ = [
    "Cluster",
    "cluster_seekers",
    "Enterprise",
    "build_enterprise",
    "build_sharded_enterprise",
    "generate_applications_fast",
    "generate_seekers_fast",
    "JobMatcher",
    "MatchResult",
    "NLQTranslator",
    "Translation",
    "SkillExtractor",
    "SkillMention",
    "base_titles",
    "build_title_taxonomy",
]

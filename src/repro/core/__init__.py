"""Core ExpCuts implementation: geometry, compression, tree, layout, engine."""

from .engine import ExpCutsEngine, LookupTrace, MemRead
from .expcuts import ExpCutsConfig, ExpCutsTree, build_expcuts
from .fields import FIELD_WIDTHS, Field, Header, TOTAL_HEADER_BITS, cut_schedule
from .habs import HabsArray, compress
from .interval import Interval, full_interval, prefix_to_interval
from .layout import TreeImage, compression_summary, pack_tree
from .rule import Rule, RuleSet
from .stats import TreeStats, collect_stats

__all__ = [
    "ExpCutsConfig",
    "ExpCutsEngine",
    "ExpCutsTree",
    "FIELD_WIDTHS",
    "Field",
    "HabsArray",
    "Header",
    "Interval",
    "LookupTrace",
    "MemRead",
    "Rule",
    "RuleSet",
    "TOTAL_HEADER_BITS",
    "TreeImage",
    "TreeStats",
    "build_expcuts",
    "collect_stats",
    "compress",
    "compression_summary",
    "cut_schedule",
    "full_interval",
    "pack_tree",
    "prefix_to_interval",
]

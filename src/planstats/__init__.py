"""Statistical comparison toolkit for planner competition run data.

Given per-problem run records (solve time, plan quality, solved flag) and
a manifest describing planners and problem sets, this package computes
pairwise consistency and magnitude comparisons, partial orders over
planners, bootstrap-based problem-difficulty classification, multi-judge
agreement tests, and relative scaling comparisons, and renders them as
tables, CSV files and DOT graphs.
"""

from .dataio import (
    Category,
    Level,
    Manifest,
    QualityDirection,
    RunRecord,
    RunTable,
    SizeClass,
    load_manifest,
    load_runs,
    validate_dataset,
)
from .pairwise import (
    Measure,
    PairingMode,
    all_pairs,
    build_pairs,
    compare,
    compare_pairs,
    magnitude,
    transitive_alpha,
)
from .ordering import EdgeKind, PartialOrder, build_order, to_dot
from .hardness import (
    BootstrapDistribution,
    Classification,
    DifficultyArea,
    HardnessVerdict,
    bootstrap_distribution,
    bootstrap_distributions,
    classify,
    difficulty_area,
    hardness_table,
    hardness_tables,
)
from .agreement import AgreementResult, agreement_table, agreement_test, judge_ranks
from .scaling import (
    ScalingResult,
    Verdict,
    agreed_difficulty,
    eligible_domains,
    scaling_comparison,
    scaling_comparisons,
)
from .ranking import WORST, rank_ascending
from .stattests import (
    mrc_test,
    paired_t_normalized,
    proportion_test,
    spearman_test,
    wilcoxon_exact_p,
    wilcoxon_matched_pairs,
)

__version__ = "0.1.0"

"""What the benchmark runs and reports; ``BENCHMARK.json`` is written from this.

Kept free of numpy/pyspark imports so that ``run.py`` can read it before it
fixes the BLAS thread count and the Spark launch arguments.
"""
from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 8

# Shared by every workload (the paper's Darwin(HS) set-up).
MAX_LEN = 5          # TokensRegex n-gram bound
MIN_COUNT = 2        # index threshold
BUDGET = 100         # oracle queries per session
STRATEGY = "hybrid"  # HybridSearch, Alg 5
MIN_SESSIONS = 3     # identical sessions per run, at least; more while --seconds lasts
MAX_SESSIONS = 16
LABEL_PASSES = 3     # label_s is the median pass
CLASSIFIER_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str            # factory in repro.corpora.datasets
    n: int
    warm_n: int          # warm-up corpus size; large enough that min_count keeps the seed rule
    treematch: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "directions", "directions", 15_300, 500, False,
            "paper-scale 15.3K intents, 3.8% positives, ~28 accepts per session: "
            "the search loop (candidates, classifier fit) dominates",
        ),
        Workload(
            "professions-25k", "professions", 25_000, 1_500, False,
            "25K sentences, 1.1% positives, 6 accepts per session: the Spark front half "
            "(annotate, index, Word2Vec, featurize) and apply_rules dominate",
        ),
        Workload(
            "cause-effect-tm", "cause_effect", 10_700, 800, True,
            "10.7K relations with TreeMatch beside TokensRegex: 86K index keys, "
            "candidate generation over dependency-tree keys",
        ),
    )
}
# Listed in BENCHMARK.json. cause-effect-tm runs by hand: a benchmark round of
# 4 + 22 x workloads runs of ~50 s each must end within 3420 s, and its search
# path is not steady across seeds.
LISTED_WORKLOADS = ("directions", "professions-25k")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("prepare_s", "s", "lower", 0.25),
    Metric("search_s", "s", "lower", 0.25),
    Metric("refresh_p50_ms", "ms", "lower", 0.25),
    Metric("label_s", "s", "lower", 0.25),
    Metric("total_s", "s", "lower", 0.25),
    Metric("driver_rss_mb", "MB", "lower", 0.1),
    Metric("positives_found", "count", "higher", 0.05),
)

PER_LAYER = (
    Metric("generator.annotate_s", "s", "lower"),
    Metric("generator.rows", "count", "lower"),
    Metric("sketch.rows", "count", "lower"),
    Metric("inverted.build_s", "s", "lower"),
    Metric("inverted.distinct_keys", "count", "lower"),
    Metric("inverted.keys", "count", "lower"),
    Metric("inverted.survivor_ratio", "ratio", "lower"),
    Metric("inverted.ids", "count", "lower"),
    Metric("pipeline.collect_s", "s", "lower"),
    Metric("embeddings.word2vec_s", "s", "lower"),
    Metric("embeddings.featurize_s", "s", "lower"),
    Metric("candidates.s", "s", "lower"),
    Metric("candidates.calls", "count", "lower"),
    Metric("hierarchy.s", "s", "lower"),
    Metric("hierarchy.kept_ratio", "ratio", "higher"),
    Metric("classifier.fit_s", "s", "lower"),
    Metric("classifier.fit_calls", "count", "lower"),
    Metric("classifier.scores_s", "s", "lower"),
    Metric("traversal.select_s", "s", "lower"),
    Metric("traversal.select_p50_ms", "ms", "lower"),
    Metric("oracle.calls", "count", "lower"),
    Metric("oracle.yes_ratio", "ratio", "higher"),
    Metric("labeling.apply_s", "s", "lower"),
    Metric("labeling.rule_evals", "count", "lower"),
    Metric("labeling.label_matrix_s", "s", "lower"),
    Metric("label_model.fit_s", "s", "lower"),
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in LISTED_WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }

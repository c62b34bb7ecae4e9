"""One benchmark run: set-up, raw corpus to weak labels, repeated sessions, checks.

Imported by ``run.py`` only after it has fixed the environment (BLAS
threads, Spark launch arguments, worker ``PYTHONPATH``).
"""
from __future__ import annotations

import dataclasses
import os
import platform
import resource
import statistics
import time

import numpy as np

import checks
import definitions as D

T = time.perf_counter


class TimedOracle:
    """Passes calls to the ground-truth oracle and times the refresh wait:
    from a YES (or the session start) to the next oracle call."""

    def __init__(self, inner):
        self.inner = inner
        self.keys: list[str] = []
        self.answers: list[bool] = []
        self.refresh_ms: list[float] = []
        self._since: float | None = None

    def start(self) -> None:
        self._since = T()

    def __call__(self, key, ids) -> bool:
        now = T()
        if self._since is not None:
            self.refresh_ms.append((now - self._since) * 1e3)
            self._since = None
        answer = bool(self.inner(key, ids))
        self.keys.append(key)
        self.answers.append(answer)
        if answer:
            self._since = T()
        return answer


def start_spark(tmp: str):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("e2ebench")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", tmp)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the context, then the JVM, and wait for it to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        proc.wait(timeout=60)


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked of the library."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_steal(since: tuple[int, int] | None = None):
    """(steal, total) jiffies of all CPUs from /proc/stat; given an earlier
    reading, the share of CPU time the hypervisor took since then."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    now = (fields[7] if len(fields) > 7 else 0, sum(fields))
    if since is None:
        return now
    return (now[0] - since[0]) / max(1, now[1] - since[1])


def environment(spark) -> dict:
    import pyarrow
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "spark_master": spark.sparkContext.master,
        "driver_memory": spark.sparkContext.getConf().get("spark.driver.memory", "1g"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "blas_threads": blas_threads(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
    }


def make_spec(w: D.Workload, n: int, seed: int | None):
    """The workload's corpus spec at size ``n``. ``seed`` permutes every slot
    vocabulary: each sentence gets other filler words, while the families,
    templates, labels and sid order stay those of the spec's own seed."""
    from repro.corpora import datasets

    spec = dataclasses.replace(getattr(datasets, w.spec)(), n=n)
    if seed is None:
        return spec
    rng = np.random.default_rng(seed)
    slots = {k: tuple(v[i] for i in rng.permutation(len(v))) for k, v in sorted(spec.slots.items())}
    return dataclasses.replace(spec, slots=slots)


def sketch_config(w: D.Workload):
    from repro.index.sketch import SketchConfig

    return SketchConfig(max_len=D.MAX_LEN, use_treematch=w.treematch)


def session(prep, tr):
    from repro.core import darwin
    from repro.core.oracle_sim import GroundTruthOracle

    oracle = TimedOracle(GroundTruthOracle(prep.labels))
    clf = prep.make_classifier(seed=D.CLASSIFIER_SEED)
    t = T()
    oracle.start()
    with tr.span("darwin.run_darwin"):
        res = darwin.run_darwin(
            prep.index, clf, oracle,
            seed_rule=prep.seed_rule_key(), budget=D.BUDGET, strategy=D.STRATEGY,
        )
    elapsed = T() - t
    res.classifier = None  # holds a float64 copy of the features; keeping it would inflate peak RSS
    return res, oracle, elapsed


def label(prep, rules, tr) -> set[int]:
    """Weak labels for the whole corpus, then the label model over the rules."""
    from repro.core import labeling
    from repro.snorkel_lite.label_model import LabelModel

    with tr.span("labeling.apply"):
        df = labeling.apply_rules(prep.corpus_df, rules, prep.cfg)
        weak = {r["sid"] for r in df.filter("weak_label").select("sid").collect()}
    with tr.span("labeling.label_matrix"):
        L = labeling.label_matrix(prep.index, labeling.dedupe_rules(prep.index, rules), prep.n)
    with tr.span("label_model.fit"):
        LabelModel(seed=D.CLASSIFIER_SEED).fit(L)
    return weak


def install_tracing(tr) -> None:
    """Wrap the layers' public functions as ``prepare`` and ``run_darwin`` call them."""
    from repro.core import darwin, traversal
    from repro.core.classifier import EmbeddingClassifier
    from repro.core.hierarchy import Hierarchy
    from repro.eval import pipeline
    from repro.index.inverted import HeuristicIndex
    from repro.text import embeddings

    def materialize(t, args, corpus):
        # Annotation is lazy; run it here so it is not billed to the index build.
        corpus = corpus.cache()
        t.counts["generator.rows"] += corpus.count()
        return corpus

    def kept(t, args, hierarchy):
        t.counts["hierarchy.candidates"] += len(args[2])
        t.counts["hierarchy.nodes"] += len(hierarchy)

    tr.wrap(pipeline, "build_corpus", "generator.annotate", materialize)
    tr.wrap(HeuristicIndex, "from_sketch", "inverted.build")
    tr.wrap(embeddings, "word2vec_embeddings", "embeddings.word2vec")
    tr.wrap(embeddings, "combined_matrix", "embeddings.featurize")
    tr.wrap(darwin, "generate_candidates", "candidates")
    tr.wrap(Hierarchy, "build", "hierarchy.build", kept)
    tr.wrap(traversal.HybridSearch, "select", "traversal.select")
    tr.wrap(EmbeddingClassifier, "fit", "classifier.fit")
    tr.wrap(EmbeddingClassifier, "scores", "classifier.scores")


def sketch_stats(prep) -> tuple[int, int]:
    """(sketch rows, distinct keys before thresholding): one extra Spark job."""
    from pyspark.sql import functions as F

    from repro.index.sketch import sketch_df

    row = (
        sketch_df(prep.corpus_df, prep.cfg).groupBy("key").count()
        .agg(F.sum("count").alias("rows"), F.count("*").alias("keys")).collect()[0]
    )
    return int(row["rows"]), int(row["keys"])


def layer_metrics(tr, prep, rules, sessions: int, distinct_keys: int, sketch_rows: int) -> dict:
    lay = tr.layers()

    def tot(name):
        return lay[name]["total_s"]

    def med(name):
        return statistics.median(lay[name]["durations_s"])

    def calls(name):
        return lay[name]["calls"]

    answers = tr.counts["oracle.yes"], tr.counts["oracle.calls"]
    ids = sum(prep.index.count(k) for k in prep.index.keys())
    select_ms = [d * 1e3 for d in lay["traversal.select"]["durations_s"]]
    # Search-loop layers are per session (every session is identical);
    # labelling layers are the median of the label passes.
    return {
        "generator.annotate_s": tot("generator.annotate"),
        "generator.rows": tr.counts["generator.rows"],
        "sketch.rows": sketch_rows,
        "inverted.build_s": tot("inverted.build"),
        "inverted.distinct_keys": distinct_keys,
        "inverted.keys": len(prep.index),
        "inverted.survivor_ratio": len(prep.index) / distinct_keys,
        "inverted.ids": ids,
        "pipeline.collect_s": lay["pipeline.prepare"]["self_s"],
        "embeddings.word2vec_s": tot("embeddings.word2vec"),
        "embeddings.featurize_s": tot("embeddings.featurize"),
        "candidates.s": tot("candidates") / sessions,
        "candidates.calls": calls("candidates") / sessions,
        "hierarchy.s": tot("hierarchy.build") / sessions,
        "hierarchy.kept_ratio": tr.counts["hierarchy.nodes"] / tr.counts["hierarchy.candidates"],
        "classifier.fit_s": tot("classifier.fit") / sessions,
        "classifier.fit_calls": calls("classifier.fit") / sessions,
        "classifier.scores_s": tot("classifier.scores") / sessions,
        "traversal.select_s": tot("traversal.select") / sessions,
        "traversal.select_p50_ms": statistics.median(select_ms),
        "oracle.calls": answers[1] / sessions,
        "oracle.yes_ratio": answers[0] / answers[1],
        "labeling.apply_s": med("labeling.apply"),
        "labeling.rule_evals": len(rules) * prep.n,
        "labeling.label_matrix_s": med("labeling.label_matrix"),
        "label_model.fit_s": med("label_model.fit"),
    }


def run(w: D.Workload, seed: int, seconds: float, tr, tmp: str) -> dict:
    """Set up, measure, check. Returns metrics, check failures and context."""
    t_setup = T()
    from repro.eval import pipeline

    steal0 = cpu_steal()
    spark = start_spark(tmp)
    spark_start_s = T() - t_setup
    try:
        cfg = sketch_config(w)
        # Warm-up: JVM JIT, Python workers and Word2Vec start land in set-up.
        warm = pipeline.prepare(spark, make_spec(w, w.warm_n, None), cfg=cfg, min_count=D.MIN_COUNT)
        session(warm, type(tr)(False))
        warm.corpus_df.unpersist()
        setup_s = T() - t_setup
        env = environment(spark)

        if tr.enabled:
            install_tracing(tr)
        spec = make_spec(w, w.n, seed)
        t0 = T()
        with tr.span("pipeline.prepare"):
            prep = pipeline.prepare(spark, spec, cfg=cfg, min_count=D.MIN_COUNT)
        prepare_s = T() - t0
        first, oracle, s = session(prep, tr)
        results, oracles, session_s = [first], [oracle], [s]
        t_label = T()
        weak = [label(prep, first.rules, tr)]
        t_end = T()
        label_s = [t_end - t_label]
        while len(results) < D.MIN_SESSIONS or (
            sum(session_s) < seconds and len(results) < D.MAX_SESSIONS
        ):
            res, oracle, s = session(prep, tr)
            results.append(res)
            oracles.append(oracle)
            session_s.append(s)
        sessions = len(results)
        while len(label_s) < D.LABEL_PASSES:
            t_label = T()
            weak.append(label(prep, first.rules, tr))
            label_s.append(T() - t_label)

        extra = {}
        if tr.enabled:
            tr.unwrap()
            for o in oracles:
                tr.counts["oracle.calls"] += len(o.answers)
                tr.counts["oracle.yes"] += sum(o.answers)
            with tr.span("sketch.stats"):
                sketch_rows, distinct = sketch_stats(prep)
            extra["layers"] = layer_metrics(tr, prep, first.rules, sessions, distinct, sketch_rows)

        # A failure that is not tied to one session fails them all, so the
        # failed share does not depend on how many sessions fit in a run.
        shared = checks.corpus(spec, prep.labels)
        for w_ in weak:
            shared += checks.weak_labels(w_, first.positives)
        for res in results[1:]:
            shared += checks.same_session(first, res)
        per_session = [
            shared + checks.session(prep, prep.seed_rule_key(), D.BUDGET, res.rules, res.positives,
                                    oracle.keys, res.history)
            for res, oracle in zip(results, oracles)
        ]
        refresh = [ms for o in oracles for ms in o.refresh_ms]
        metrics = {
            "setup_s": setup_s,
            "prepare_s": prepare_s,
            "search_s": statistics.median(session_s),
            "refresh_p50_ms": statistics.median(refresh),
            "label_s": statistics.median(label_s),
            "total_s": t_end - t0,
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "positives_found": int(prep.labels[np.fromiter(first.positives, dtype=np.int64)].sum()),
        }
        info = {
            "spark_start_s": spark_start_s,
            "cpu_steal_share": cpu_steal(steal0),
            "sessions": sessions,
            "session_s": session_s,
            "refresh_samples": len(refresh),
            "rules": len(first.rules),
            "positives": len(first.positives),
            "index_keys": len(prep.index),
            "label_s": label_s,
            "weak_labels": len(weak[0]),
        }
        if len(refresh) >= 100:
            info["refresh_p90_ms"] = statistics.quantiles(refresh, n=10)[-1]
        return {"metrics": metrics, "fails": per_session, "env": env, "info": info, **extra}
    finally:
        stop_spark(spark)

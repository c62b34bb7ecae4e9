#!/usr/bin/env python3
"""End-to-end benchmark: raw corpus to rules to weak labels, on Spark.

Run from the repository root:

    python3 e2ebench/run.py --workload directions --seed 1 --seconds 8 --trace 0
    python3 e2ebench/run.py --write-manifest      # regenerate BENCHMARK.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything the run writes stays under ``.e2ebench/`` in the repository.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".e2ebench"

import definitions as D  # noqa: E402  (pure data; safe before the environment is fixed)

# Fixed here, not inherited: OpenBLAS's default two-thread pool made one
# directions session take 2.4-2.9 s across processes; one thread holds it steady.
BLAS_THREADS = "1"
SPARK_MASTER = "local[4]"
DRIVER_MEMORY = "4g"


def fix_environment(tmp: Path) -> None:
    """Must run before numpy or pyspark is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # numpy asks for transparent huge pages on large arrays, and whether a
    # process gets them varies. Fixed off, like the BLAS threads.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # Python workers inherit the JVM's environment: put repro on their path
    # (jobs/_common.get_spark leaves this to an installed package).
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {SPARK_MASTER} --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 "
        # No hsperfdata file in the system /tmp; JVM temp files under tmp.
        f"--driver-java-options {shlex.quote(f'-Djava.io.tmpdir={tmp} -XX:-UsePerfData')} pyspark-shell"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(D.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=D.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args()

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(D.manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    fix_environment(tmp)
    import flow
    from spans import Tracer

    w = D.WORKLOADS[args.workload]
    tr = Tracer(bool(args.trace))
    try:
        out = flow.run(w, args.seed, args.seconds, tr, str(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    sessions = out["info"]["sessions"]
    failed = sum(1 for f in out["fails"] if f)
    for i, fails in enumerate(out["fails"]):
        for msg in fails:
            print(f"CHECK FAILED (session {i + 1}): {msg}")
    print("env " + json.dumps(out["env"]))
    print("info " + json.dumps(out["info"]))
    e2e = out["metrics"]
    for m in D.END_TO_END:
        print(f"{m.name:>16} = {e2e[m.name]:.4f} {m.unit}")

    result_file = OUT / f"result-{w.name}-{args.seed}.json"
    if args.trace:
        layers = out["layers"]
        for m in D.PER_LAYER:
            print(f"{m.name:>24} = {layers[m.name]:.6g} {m.unit}")
        overhead = {"spans": len(tr.spans), "span_cost_s": tr.span_cost_s()}
        overhead["span_cost_total_s"] = overhead["spans"] * overhead["span_cost_s"]
        if result_file.exists():
            plain = json.loads(result_file.read_text())["metrics"]
            for k in ("total_s", "search_s"):
                overhead[f"{k}_vs_untraced"] = e2e[k] / plain[k] - 1
        print("trace overhead " + json.dumps(overhead))
        tr.dump(OUT / f"trace-{w.name}-{args.seed}.json",
                {"workload": w.name, "seed": args.seed, "env": out["env"], "info": out["info"],
                 "end_to_end": e2e, "per_layer": layers, "overhead": overhead})
        metrics = {m.name: {"value": layers[m.name], "unit": m.unit} for m in D.PER_LAYER}
    else:
        result_file.write_text(json.dumps({"metrics": e2e, "env": out["env"], "info": out["info"]}, indent=1))
        metrics = {m.name: {"value": e2e[m.name], "unit": m.unit} for m in D.END_TO_END}

    print(json.dumps({"correct": failed == 0, "attempted": sessions, "failed": failed, "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Maimon benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload adult-mine --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Builds the program and the benchmark code (see build.py), runs it in a
fresh JVM with a pinned heap and a pinned Spark master, cross-checks one
scored scheme's join size against DuckDB, and prints the metrics by name
and unit. The last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Everything the run writes stays under .bench_build/ in the checkout.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import build  # noqa: E402  (the benchmark's build file, next to this one)

ROOT = build.ROOT
HEAP = "2g"
MAX_CORES = 4
RUN_LIMIT_S = 165
# What Spark's own launcher passes to a JDK 17 JVM.
SPARK_JVM_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    return json.loads(path.read_text())


def commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def duckdb_join_size(out):
    """count(*) over the join of the distinct projections, in DuckDB."""
    import duckdb
    check = json.loads((out / "join_check.json").read_text())
    con = duckdb.connect(":memory:", config={"autoinstall_known_extensions": False,
                                             "autoload_known_extensions": False})
    try:
        con.execute("CREATE TABLE r AS SELECT * FROM read_csv(?, header = true, all_varchar = true)",
                    [str(out / "relation.csv")])
        sql, seen = "", set()
        for i, bag in enumerate(check["bags"]):
            cols = ", ".join(f'"{c}"' for c in bag)
            part = f"(SELECT DISTINCT {cols} FROM r) AS t{i}"
            shared = [f'"{c}"' for c in bag if c in seen]
            if i == 0:
                sql = f"SELECT count(*) FROM {part}"
            elif shared:
                sql += f" JOIN {part} USING ({', '.join(shared)})"
            else:
                sql += f" CROSS JOIN {part}"
            seen.update(bag)
        return con.execute(sql).fetchone()[0], check["join_size"]
    finally:
        con.close()


def run_one(spec, classes, tag, workload, seed, seconds, trace):
    """Run one workload in a fresh JVM; return the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    out = build.BUILD_DIR / "runs" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "tmp").mkdir(parents=True)
    print("env: " + json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit(), "source_digest": tag, "nproc": os.cpu_count(),
        "cores_used": cores, "heap": f"-Xms{HEAP} -Xmx{HEAP}", "master": f"local[{cores}]"}),
        flush=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={out / 'tmp'}",
           f"-Dlog4j2.configurationFile={pathlib.Path(__file__).resolve().parent / 'log4j2.properties'}",
           *SPARK_JVM_OPTS,
           "-cp", build.classpath(classes), "repro.perfbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--cores", str(cores), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: the benchmark JVM exceeded the time limit")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: the benchmark JVM exited with {proc.returncode} and no result")
    res = json.loads(lines[-1][len("RESULT "):])
    print("env: " + json.dumps({"jvm": res["env"]}), flush=True)

    attempted, failed = res["attempted"] + 1, res["failed"]
    got, want = duckdb_join_size(out)
    if got != want:
        print(f"perfbench: DuckDB join size {got} != Spark joinSize {want}", file=sys.stderr)
        failed += 1
    if trace:
        traces = build.BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        shutil.copy(out / "trace.jsonl", traces / f"{workload}-seed{seed}.jsonl")
    shutil.rmtree(out, ignore_errors=True)

    wanted = spec["per_layer" if trace else "end_to_end"]
    values = res["metrics"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        fail(f"{workload}: metrics {sorted(values)} do not match BENCHMARK.json")
    for m in wanted:
        v = values[m["name"]]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{workload}: metric {m['name']} is {v}")
        print(f"  {workload:14s} {m['name']:22s} {v:14.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help=" | ".join(names + ["all"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.workload != "all" and a.workload not in names:
        fail(f"unknown workload {a.workload}; known: {', '.join(names)}")
    classes, tag = build.build()
    if a.workload != "all":
        res = run_one(spec, classes, tag, a.workload, a.seed, a.seconds, a.trace)
    else:
        runs = {w: run_one(spec, classes, tag, w, a.seed, a.seconds, a.trace) for w in names}
        res = {"correct": all(r["correct"] for r in runs.values()),
               "attempted": sum(r["attempted"] for r in runs.values()),
               "failed": sum(r["failed"] for r in runs.values()),
               "metrics": {f"{w}.{k}": v for w, r in runs.items() for k, v in r["metrics"].items()}}
    print(json.dumps(res))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs one workload of the RADS benchmark and prints its result.

Usage, from the repository root:

    python3 radsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark first when its sources changed (see ``build.py``),
then runs it in one JVM with Spark in local mode. Everything it writes
stays under ``.bench_build/radsbench``. The last line of standard output
is the JSON result; see ``radsbench/README.md`` for the metrics.
"""

import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark's directory free of build output
import build  # noqa: E402

# JDK 17 module opens that Spark's launcher scripts normally add.
MODULE_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/sun.nio.ch",
    "java.base/sun.nio.cs", "java.base/sun.security.action", "java.base/sun.util.calendar",
]
TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    classes = build.build()
    scratch = build.OUT / "run"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java", "-Xmx3g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.sql.warehouse.dir={scratch / 'warehouse'}",
            f"-Dlog4j2.configurationFile={build.ROOT / 'radsbench' / 'log4j2.properties'}"]
           + [f"--add-opens={m}=ALL-UNNAMED" for m in MODULE_OPENS]
           + ["-cp", os.pathsep.join([str(classes), str(build.spark_jars() / "*")]),
              "repro.radsbench.Main",
              "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--trace", a.trace])
    try:
        env = dict(os.environ, SPARK_LOCAL_DIRS=str(scratch / "spark-local"))
        return subprocess.run(cmd, cwd=build.ROOT, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"radsbench: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

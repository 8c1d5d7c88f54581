#!/usr/bin/env python3
"""Build file of the RADS benchmark.

Compiles the program's sources (``src/main/scala``) together with the
benchmark's own (``radsbench/src``) into ``.bench_build/radsbench/classes``,
using the Scala compiler that ships in Spark's ``jars`` directory, so no
dependency is resolved. A build is skipped when the sources have not
changed since the last one.

Usage, from the repository root: ``python3 radsbench/build.py``
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "radsbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "radsbench" / "src"]


def spark_jars() -> Path:
    """Spark's jar directory: ``$SPARK_HOME/jars``, else next to ``spark-submit``."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            sys.exit("radsbench: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        sys.exit(f"radsbench: no Spark jars directory at {jars}")
    return jars


def sources() -> list:
    missing = [d for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        sys.exit(f"radsbench: source directory {missing[0]} not found; "
                 "run from a full checkout of the repository")
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def build() -> Path:
    """Compiles if needed and returns the classes directory."""
    srcs = sources()
    jars = spark_jars()
    digest = hashlib.sha256()
    for p in srcs:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    stamp = digest.hexdigest()
    classes = OUT / "classes"
    stamp_file = OUT / "classes.stamp"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes

    compiler = [next(jars.glob(f"scala-{name}-2.13.*.jar"), None)
                for name in ("compiler", "library", "reflect")]
    if None in compiler:
        sys.exit(f"radsbench: no Scala 2.13 compiler in {jars}")
    staging = OUT / "classes.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    cmd = ["java", "-Xss4m", "-Xmx1g", "-XX:-UsePerfData",
           "-cp", os.pathsep.join(map(str, compiler)), "scala.tools.nsc.Main",
           "-nowarn", "-usejavacp", "-classpath", str(jars / "*"),
           "-d", str(staging)] + [str(p) for p in srcs]
    print(f"radsbench: compiling {len(srcs)} sources", file=sys.stderr, flush=True)
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        sys.exit("radsbench: compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    staging.rename(classes)
    stamp_file.write_text(stamp)
    return classes


if __name__ == "__main__":
    print(build())

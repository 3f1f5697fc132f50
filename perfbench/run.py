#!/usr/bin/env python3
"""Builds the benchmark if needed, then runs one benchmark process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run compiles the program and the benchmark with sbt and records the
runtime classpath under `.bench_build/`; later runs start the JVM directly.
The build is redone when any source or build file changes. Everything the run
writes stays under `.bench_build/` and the sbt `target/` directories, apart
from the state sbt itself keeps in the user's home while it builds.
"""
import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(WORK, "classpath.txt")
STAMP = os.path.join(WORK, "classpath.stamp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

# The --add-opens flags that spark-submit would inject on JDK 17 (as in the
# program's build.sbt).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.base/java.time",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("src/main", "jobs", "project", "perfbench")]
    files = [os.path.join(ROOT, "build.sbt")]
    for r in roots:
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in filenames
                      if f.endswith((".scala", ".sbt", ".properties"))]
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run(cmd, timeout, **kw):
    """Runs cmd, killing it (and waiting for it) if it outlives timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {cmd[0]}")
        proc.kill()
        proc.wait()
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build():
    stamp = source_stamp()
    if os.path.isfile(CLASSPATH) and os.path.isfile(STAMP):
        with open(STAMP) as fh:
            if fh.read() == stamp:
                return
    log("building the program and the benchmark with sbt")
    for f in (CLASSPATH, STAMP):
        if os.path.exists(f):
            os.remove(f)
    code = run(["sbt", "--batch", "-Dsbt.log.noformat=true",
                f"-Dperfbench.classpathFile={CLASSPATH}", "writeClasspath"],
               BUILD_TIMEOUT_S, cwd=BENCH, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.isfile(CLASSPATH):
        log(f"build failed (exit {code})")
        sys.exit(code or 1)
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def main():
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    local_dirs = os.environ.setdefault("SPARK_LOCAL_DIRS", os.path.join(WORK, "spark-local"))
    os.makedirs(local_dirs, exist_ok=True)
    build()
    with open(CLASSPATH) as fh:
        classpath = fh.read().strip()
    cmd = ["java"] + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS] + [
        "-XX:+IgnoreUnrecognizedVMOptions",
        f"-Xmx{os.environ.get('SPARK_DRIVER_MEM', '2g')}",
        f"-Djava.io.tmpdir={os.path.join(WORK, 'tmp')}",
        f"-Dperfbench.workDir={WORK}",
        f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}",
        "-Dspark.driver.host=127.0.0.1",
        "-cp", classpath, "repro.bench.PerfBench",
    ] + sys.argv[1:]
    sys.exit(run(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL))


if __name__ == "__main__":
    main()

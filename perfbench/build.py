"""Build file of the benchmark: compiles the program (src/main/scala) and
the benchmark's own Scala sources with scalac, against the Spark
distribution's jars (under SPARK_HOME, else found from spark-submit on the
PATH), the same jars the repository's sbt build compiles against.

    python3 perfbench/build.py          # build if any source changed

Classes go to .bench_build/perfbench/classes under the repository root; a
stamp of the sources' hash skips rebuilding unchanged sources.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(BUILD, "classes")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
PROGRAM_RESOURCES = os.path.join(ROOT, "src", "main", "resources")
BENCH_SOURCES = [os.path.join(ROOT, "perfbench", "src", d, "scala") for d in ("main", "test")]


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    submit = shutil.which("spark-submit")
    if not home and submit:
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("no Spark distribution found; set SPARK_HOME")
    return jars


def scala_sources(directory):
    return sorted(glob.glob(os.path.join(directory, "**", "*.scala"), recursive=True))


def runtime_classpath():
    return os.pathsep.join([CLASSES, PROGRAM_RESOURCES, os.path.join(spark_jars(), "*")])


def build(quiet=False):
    """Compile if needed; return the runtime classpath."""
    program = scala_sources(PROGRAM_SOURCES)
    if not program:
        raise BuildError(f"no program sources under {PROGRAM_SOURCES}")
    sources = program + [s for d in BENCH_SOURCES for s in scala_sources(d)]
    jars = spark_jars()
    compiler = [glob.glob(os.path.join(jars, f"scala-{n}-2.13.*.jar")) for n in ("compiler", "library", "reflect")]
    if not all(compiler):
        raise BuildError(f"no Scala 2.13 compiler jars in {jars}")
    compiler = [c[0] for c in compiler]

    digest = hashlib.sha256()
    for path in sources + compiler:
        digest.update(os.path.relpath(path, ROOT).encode())
        if path.endswith(".scala"):
            with open(path, "rb") as f:
                digest.update(f.read())
    stamp = digest.hexdigest()
    stamp_file = os.path.join(BUILD, "stamp")
    if os.path.isdir(CLASSES) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                return runtime_classpath()

    staging = CLASSES + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", staging,
           "-cp", os.path.join(jars, "*")] + sources
    if not quiet:
        print(f"compiling {len(sources)} Scala sources", file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(staging, CLASSES)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return runtime_classpath()


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)

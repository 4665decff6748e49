"""The repository's benchmark: one command per run.

    python3 perfbench/run.py --workload qbe|index|search --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record --workload qbe|search   # rewrite expected values (seed 97)

Builds the program and the benchmark (perfbench/build.py), then runs one JVM
that sets the workload up, drives it for S seconds from one client thread,
checks every output and prints a metric table. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every check passed. See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# Seconds a run may take beyond its timed window(s): JVM start and set-up
# (about 50 s), the op in flight at the deadline (up to 20 s, twice that
# traced) and the final report.
OVERHEAD_S = 150
RECORD_TIMEOUT_S = 900  # --record runs a whole pass, about 250 s for qbe
# Module access Spark 4 needs on JDK 17+, as its own launcher grants it.
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def java_command(classpath, main, args):
    tmp = os.path.join(build.BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return (["java", "-Xmx3g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
             "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true",
             "-Dspark.driver.host=127.0.0.1"] + JAVA_OPENS + ["-cp", classpath, main] + args)


def run_jvm(cmd, timeout):
    """Run the JVM in its own process group; kill the group on timeout."""
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(build.BUILD, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"benchmark JVM killed after {timeout} s", file=sys.stderr)
        return 3, ""
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["qbe", "search", "index"])
    p.add_argument("--seed", type=int, default=97)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    try:
        classpath = build.build()
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    if a.self_test:
        code, out = run_jvm(java_command(classpath, "repro.perfbench.SelfTest", []), OVERHEAD_S)
        sys.stdout.write(out)
        return code

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--expected", os.path.join(bench_dir, "expected"),
            "--out", os.path.join(build.BUILD, "traces")]
    if a.record:
        args.append("--record")
    timeout = RECORD_TIMEOUT_S if a.record else OVERHEAD_S + (2 if a.trace == "1" else 1) * a.seconds
    code, out = run_jvm(java_command(classpath, "repro.perfbench.Main", args), timeout)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        print(f"benchmark printed no result (exit {code})", file=sys.stderr)
        return code or 4
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

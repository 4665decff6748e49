package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.io.Source
import scala.jdk.CollectionConverters._

import repro.SparkEnv

/** The benchmark's JVM entry point:
  *
  *   Main --workload qbe|search|index --seed N --seconds S --trace 0|1
  *        --expected DIR --out DIR [--record]
  *
  * Sets up the workload, drives it from this single client thread for S
  * seconds (closed loop), checks every output and prints a metric table
  * followed by one JSON line. `--trace 1` runs every op both untraced and
  * traced and prints per-layer metrics instead of end-to-end ones.
  * `--record` runs one full pass at seed 97 and writes the expected values
  * the output checks compare against.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        expected: File, out: File, record: Boolean)

  /** Seed at which outputs are compared value by value with the recorded
    * ones; at other seeds only invariants are checked.
    */
  val RecordedSeed = 97L

  final case class OpRecord(k: Int, ns: Long, outcome: Either[String, OpOutcome]) {
    def failures: Vector[String] = outcome.fold(e => Vector(e), _.failures)
  }
  /** Ops run in a window of `ns` nanoseconds; `completed` counts how many
    * of them fell inside it, in whole and fractional ops.
    */
  final case class Window(ops: Vector[OpRecord], ns: Long, gcMs: Long, completed: Double) {
    def perSecond: Double = completed / (ns / 1e9)
  }

  /** Ops completed by the deadline when `n` ops ran back to back and the
    * last, started at `lastStartNs` and taking `lastNs`, was in flight at
    * the deadline: it counts by the part of it that ran before. So the count
    * grows smoothly with speed, instead of jumping by a whole query when an
    * op ends just before or just after the deadline.
    */
  def completedBy(deadlineNs: Long, n: Int, lastStartNs: Long, lastNs: Long): Double =
    if (n == 0) 0.0
    else n - 1 + math.min(1.0, math.max(0L, deadlineNs - lastStartNs).toDouble / math.max(1L, lastNs))

  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  def parse(argv: Array[String]): Args = {
    val kv = argv.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      new File(need("expected")), new File(need("out")), argv.contains("--record"))
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv))
      catch { case e: Throwable => e.printStackTrace(); 2 }
    System.exit(code)
  }

  def runOp(w: Workload, tr: Tracer, k: Int): OpRecord = {
    tr.op = k
    val t0 = System.nanoTime()
    val out =
      try Right(tr.span("op", "op")(w.op(k, tr)))
      catch { case e: Exception => Left(s"op $k threw $e") }
    tr.op = -1
    OpRecord(k, System.nanoTime() - t0, out)
  }

  /** The workload's untimed warm-up ops, so the JIT and Spark's code caches
    * are warm before timing starts. They run from the end of the pass
    * backwards, away from the ops the timed window starts with, so the
    * window does not repeat work the warm-up just did.
    */
  def warmUp(w: Workload): Unit = {
    val off = new Tracer(false)
    for (j <- 1 to w.warmUpOps) w.op(w.passSize - j, off)
  }

  /** Run ops from index 0 until `seconds` have passed; the op in flight at
    * the deadline finishes and counts by its part inside the window.
    */
  def measure(w: Workload, tr: Tracer, seconds: Double): Window = {
    val gc0 = gcMs()
    val start = System.nanoTime()
    val deadline = start + (seconds * 1e9).toLong
    val ops = Vector.newBuilder[OpRecord]
    var k = 0
    var lastStart = start
    var last: OpRecord = null
    while (System.nanoTime() < deadline) {
      lastStart = System.nanoTime()
      last = runOp(w, tr, k); ops += last; k += 1
    }
    Window(ops.result(), deadline - start, gcMs() - gc0,
      completedBy(deadline, k, lastStart, if (last == null) 0L else last.ns))
  }

  /** One pass over every distinct op, untimed by the deadline. */
  def pass(w: Workload, tr: Tracer): Window = {
    val start = System.nanoTime()
    val ops = (0 until w.passSize).map(runOp(w, tr, _)).toVector
    Window(ops, System.nanoTime() - start, 0, ops.size)
  }

  /** The traced run: each op runs once untraced and once traced, the order
    * swapping from op to op so warm-up favours neither, for `2 × seconds`.
    * Returns the untraced and the traced window; the GC time is the pair's.
    */
  def measurePaired(w: Workload, tr: Tracer, seconds: Double): (Window, Window) = {
    val off = new Tracer(false)
    val gc0 = gcMs()
    val deadline = System.nanoTime() + (2 * seconds * 1e9).toLong
    val plain = Vector.newBuilder[OpRecord]; val traced = Vector.newBuilder[OpRecord]
    var k = 0
    while (System.nanoTime() < deadline) {
      for (t <- if (k % 2 == 0) Seq(false, true) else Seq(true, false))
        (if (t) traced else plain) += runOp(w, if (t) tr else off, k)
      k += 1
    }
    val gc = gcMs() - gc0
    def window(ops: Vector[OpRecord]) = Window(ops, ops.map(_.ns).sum, gc, ops.size)
    (window(plain.result()), window(traced.result()))
  }

  def readTsv(f: File): Map[String, Vector[String]] =
    if (!f.exists()) Map.empty
    else {
      val src = Source.fromFile(f, "UTF-8")
      try src.getLines().filter(_.nonEmpty).map(_.split('\t').toVector).map(r => r.head -> r.tail).toMap
      finally src.close()
    }

  def writeTsv(f: File, rows: Seq[(String, Vector[String])]): Unit = {
    f.getParentFile.mkdirs()
    val pw = new PrintWriter(f, "UTF-8")
    try rows.foreach { case (k, vs) => pw.println((k +: vs).mkString("\t")) } finally pw.close()
  }

  def run(a: Args): Int = {
    require(Set("qbe", "search", "index").contains(a.workload), s"unknown workload ${a.workload}")
    require(!a.record || a.seed == RecordedSeed && a.workload != "index",
      s"--record needs --seed $RecordedSeed and the qbe or search workload")
    val gcStart = gcMs()
    val t0 = System.nanoTime()
    val spark = SparkEnv.session
    val sessionNs = System.nanoTime() - t0
    var counters: SparkCounters = null
    val tracer = new Tracer(a.trace, id => if (counters != null) counters.setCurrent(id))
    if (a.trace) {
      counters = new SparkCounters(spark.sparkContext, tracer)
      spark.sparkContext.addSparkListener(counters)
    }
    val repos = Corpora.generate(spark, tracer)
    val t1 = System.nanoTime()
    val corpora = if (a.workload == "index") Vector.empty else Corpora.index(spark, repos, tracer)
    val indexBuildS = (System.nanoTime() - t1) / 1e9
    val indexFile = new File(a.expected, "index.tsv")
    val workload: Workload = tracer.span("workload.setup", "setup") {
      a.workload match {
        case "qbe" => new QbeWorkload(corpora, a.seed, tracer)
        case "search" => new SearchWorkload(corpora, a.seed)
        case _ => new IndexWorkload(spark, repos, readTsv(indexFile))
      }
    }
    tracer.span("warmup", "setup")(warmUp(workload))
    val setupNs = System.nanoTime() - t0
    val setupGc = gcMs() - gcStart

    // Index check: the corpora do not depend on the workload seed.
    val fingerprints = corpora.map(c => c.name -> Corpora.fingerprint(c))
    val setupFailures =
      if (a.record) Vector.empty
      else fingerprints.flatMap { case (n, got) => Workload.mismatch(n, got, readTsv(indexFile)) }

    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)

    val expectedFile = new File(a.expected, s"${a.workload}-seed$RecordedSeed.tsv")
    val off = new Tracer(false)
    val (plain, traced) =
      if (a.record) (pass(workload, off), None)
      else if (a.trace) { val (p, t) = measurePaired(workload, tracer, a.seconds); (p, Some(t)) }
      else (measure(workload, off, a.seconds), None)
    if (counters != null) counters.drain()

    if (a.record) {
      writeTsv(indexFile, fingerprints)
      writeTsv(expectedFile, plain.ops.flatMap(_.outcome.toOption).filter(_.recorded).map(o => o.key -> o.observed))
      println(s"recorded ${plain.ops.size} ops to $expectedFile and the index fingerprints to $indexFile")
    }

    // At the recorded seed every recorded op must match its line in the
    // workload's expected file; a missing file fails the run.
    val want =
      if (a.seed != RecordedSeed || a.record || a.workload == "index") None
      else Some(readTsv(expectedFile))
    val expectedFailures = Option.when(want.exists(_.isEmpty))(s"no recorded values in $expectedFile").toVector
    def check(r: OpRecord): Vector[String] = r.failures ++ r.outcome.toOption.toVector.flatMap { o =>
      want.filter(_ => o.recorded).flatMap(Workload.mismatch(o.key, o.observed, _))
    }
    val allOps = plain.ops ++ traced.toVector.flatMap(_.ops)
    val opFailures = allOps.map(check)
    val failed = opFailures.count(_.nonEmpty)
    (setupFailures ++ expectedFailures ++ opFailures.flatten).take(20)
      .foreach(f => Console.err.println(s"check failed: $f"))
    val correct = failed == 0 && setupFailures.isEmpty && expectedFailures.isEmpty

    val report = new Report(a, plain, setupNs / 1e9, heapMb, setupGc, corpora, indexBuildS, failed, allOps.size)
    val metrics = traced match {
      case None => report.endToEnd()
      case Some(tw) =>
        val spans = tracer.spans
        if (a.out.mkdirs() || a.out.isDirectory)
          Report.writeTrace(new File(a.out, s"trace-${a.workload}-seed${a.seed}.jsonl"), spans, tw)
        report.perLayer(tw, spans, sessionNs / 1e6)
    }
    println(Report.json(correct, allOps.size, failed, metrics))
    spark.stop()
    if (correct) 0 else 1
  }
}

package repro.perfbench

import java.io.{File, PrintWriter}

import repro.perfbench.Main.{Args, OpRecord, Window}

/** Turns one run's windows and spans into named metrics, prints them as a
  * table (name, value, unit, samples) and renders the final JSON line.
  */
final class Report(a: Args, plain: Window, setupS: Double, heapMb: Double, setupGcMs: Long,
                   corpora: Vector[Corpus], indexBuildS: Double, failed: Int, attempted: Int) {
  import Report._

  private def latMs(w: Window): Vector[Double] = w.ops.map(_.ns / 1e6)

  /** The end-to-end metrics of the untraced window under the workload's own
    * names (printed), and the ones `BENCHMARK.json` bounds (returned).
    */
  def endToEnd(): Vector[Metric] = {
    val lat = latMs(plain)
    val n = lat.size
    val outcomes = plain.ops.flatMap(_.outcome.toOption)
    def tail(name: String, p: Double) =
      if (Trace.reportable(n, p)) Metric(name, Trace.percentile(lat, p), "ms", n)
      else Metric(name, Double.NaN, "ms", n, s"needs ${Iterator.from(1).find(Trace.reportable(_, p)).get} samples")
    val own = a.workload match {
      case "qbe" => Vector(
        Metric("query_p50_ms", Trace.percentile(lat, 0.5), "ms", n),
        tail("query_p90_ms", 0.9),
        Metric("qbe_qps", plain.perSecond, "queries/s", n),
        Metric("found_ratio", outcomes.count(_.observed(5) == "true").toDouble / outcomes.size, "ratio", outcomes.size))
      case "index" => Vector(
        Metric("index_build_s", Trace.percentile(lat, 0.5) / 1e3, "s", n, "both corpora plus serving init, per op"),
        Metric("builds_per_s", plain.perSecond, "builds/s", n))
      case _ =>
        val cs = outcomes.filter(_.key.endsWith("/CS"))
        Vector(
          Metric("search_p50_ms", Trace.percentile(lat, 0.5), "ms", n),
          tail("search_p95_ms", 0.95),
          Metric("searches_per_s", plain.perSecond, "searches/s", n),
          Metric("cs_hit_ratio", cs.count(_.observed(0) == "true").toDouble / cs.size, "ratio", cs.size))
    }
    val common = Vector(
      Metric("setup_s", setupS, "s", 1),
      Metric("heap_mb", heapMb, "MB", 1),
      Metric("error_rate", failed.toDouble / attempted, "ratio", attempted),
    ) ++ Option.when(a.workload != "index")(
      Metric("index_build_s", indexBuildS, "s", 1, "both corpora plus serving init, timed in set-up")) ++ Vector(
      Metric("jvm.gc_ms.setup", setupGcMs.toDouble, "ms", 1),
      Metric("jvm.gc_ms.ops", plain.gcMs.toDouble, "ms", 1))
    printTable(s"${a.workload}: end-to-end (seed ${a.seed}, ${a.seconds} s, untraced)", own ++ common)
    if (n <= 30) println(plain.ops.map(r => f"${r.outcome.fold(identity, _.key)} ${r.ns / 1e6}%.1f ms").mkString("ops: ", ", ", ""))
    // The JSON line leaves latency percentiles out: in `search` half the ops
    // are sub-millisecond chembl-lite searches and half are wdc-lite ones of
    // several ms, so the median sits in the gap between them and jumps with
    // small shifts in the mix. Throughput averages over both.
    Vector(
      Metric("ops_per_s", plain.perSecond, "1/s", n),
      Metric("setup_s", setupS, "s", 1),
      Metric("heap_mb", heapMb, "MB", 1))
  }

  /** Per-layer metrics of the traced window: self time per op by layer,
    * funnel counts per op from return values, Spark counters per layer, and
    * the set-up's data and discovery layers.
    */
  def perLayer(tw: Window, spans: Vector[Span], sessionMs: Double): Vector[Metric] = {
    val self = Trace.selfNs(spans)
    val incl = Trace.inclusiveCounts(spans)
    val setup = spans.filter(_.op < 0)
    val inOps = spans.filter(_.op >= 0)
    val nOps = inOps.count(_.layer == "op")
    def per(x: Double, n: Int): Double = if (n == 0) 0.0 else x / n
    def selfMs(ss: Seq[Span]): Double = ss.map(s => self(s.id)).sum / 1e6
    def layer(l: String): Vector[Span] = inOps.filter(_.layer == l)
    def counts(ss: Seq[Span]): (Long, Long, Long) =
      ss.map(s => incl(s.id)).foldLeft((0L, 0L, 0L)) { case ((a1, b1, c1), (a2, b2, c2)) => (a1 + a2, b1 + b2, c1 + c2) }

    val funnels = tw.ops.flatMap(_.outcome.toOption).map(_.funnel)
    def mean(k: String): Double = per(funnels.flatMap(_.get(k)).sum, funnels.count(_.contains(k)))
    def ratio(num: String, den: String): Double = {
      val d = funnels.flatMap(_.get(den)).sum
      if (d == 0) 0.0 else funnels.flatMap(_.get(num)).sum / d
    }

    // Selection is timed by a separate select call per search; JGS is the
    // facade's span minus that time.
    val strategies = Vector("SA", "SB", "CS")
    val byStrategy = strategies.map { st =>
      val facade = inOps.filter(_.name == s"ver.searchSpecs.$st")
      val sel = inOps.filter(_.name == s"select.$st")
      val selMs = sel.map(_.durNs).sum / 1e6
      st -> (per(selMs, facade.size), per(facade.map(_.durNs).sum / 1e6 - selMs, facade.size))
    }.toMap
    val mat = layer("materialize")
    val (mJobs, mTasks, mBusy) = counts(mat)
    val matMs = selfMs(mat)
    // Discovery runs in set-up for qbe and search and in every op for index:
    // its metrics are per index pass (both builds plus serving init).
    val disc = spans.filter(_.layer == "discovery")
    val indexPasses = disc.count(_.name == "discovery.serve_init")
    val (dJobs, dTasks, dBusy) = counts(disc)
    def passMs(name: String): Double = per(disc.filter(_.name == name).map(_.durNs).sum / 1e6, indexPasses)
    def setupMs(name: String): Double = setup.filter(_.name == name).map(_.durNs).sum / 1e6
    def indexCount(f: Corpus => Int, funnelKey: String): Double =
      if (corpora.nonEmpty) corpora.map(f).sum.toDouble else mean(funnelKey)
    val opMs = layer("op").map(_.durNs / 1e6)
    val probeMs = selfMs(layer("trace")) + layer("select").map(_.durNs).sum / 1e6

    val ms = Vector(
      Metric("data.generate_ms", setupMs("data.generate"), "ms", 1),
      Metric("discovery.build_ms.chembl-lite", passMs("discovery.build.chembl-lite"), "ms", indexPasses),
      Metric("discovery.build_ms.wdc-lite", passMs("discovery.build.wdc-lite"), "ms", indexPasses),
      Metric("discovery.serve_init_ms", passMs("discovery.serve_init"), "ms", indexPasses),
      Metric("discovery.spark_jobs", per(dJobs.toDouble, indexPasses), "count", indexPasses),
      Metric("discovery.spark_tasks", per(dTasks.toDouble, indexPasses), "count", indexPasses),
      Metric("discovery.task_busy_ms", per(dBusy.toDouble, indexPasses), "ms", indexPasses),
      Metric("discovery.joinable_pairs", indexCount(_.index.containment.size, "joinable_pairs"), "count", indexPasses),
      Metric("discovery.distinct_values", indexCount(_.index.columnValues.values.map(_.size).sum, "distinct_values"),
        "count", indexPasses),
      Metric("setup.spark_session_ms", sessionMs, "ms", 1),
      Metric("setup.ms", setupS * 1e3, "ms", 1),
      Metric("select.ms.CS", byStrategy("CS")._1, "ms", nOps),
      Metric("jgs.ms.CS", byStrategy("CS")._2, "ms", nOps),
      Metric("select.candidate_columns", mean("candidate_columns"), "count", nOps),
      Metric("select.clusters", mean("clusters"), "count", nOps),
      Metric("select.selected_columns", mean("selected_columns"), "count", nOps),
      Metric("jgs.combos", mean("combos"), "count", nOps),
      Metric("jgs.join_graphs", mean("join_graphs"), "count", nOps),
      Metric("jgs.joinable_groups", mean("joinable_groups"), "count", nOps),
      Metric("jgs.specs", mean("specs"), "count", nOps),
      Metric("jgs.specs_per_combo", ratio("specs", "combos"), "ratio", nOps),
      Metric("materialize.ms", per(matMs, nOps), "ms", nOps),
      Metric("materialize.ms_per_view", per(matMs, funnels.flatMap(_.get("views")).sum.toInt), "ms", nOps),
      Metric("materialize.views", mean("views"), "count", nOps),
      Metric("materialize.rows", mean("rows"), "count", nOps),
      Metric("materialize.spark_jobs", per(mJobs.toDouble, nOps), "count", nOps),
      Metric("materialize.spark_tasks", per(mTasks.toDouble, nOps), "count", nOps),
      Metric("materialize.task_busy_ms", per(mBusy.toDouble, nOps), "ms", nOps),
      Metric("distill.ms", per(selfMs(layer("distill")), nOps), "ms", nOps),
      Metric("distill.original", mean("original"), "count", nOps),
      Metric("distill.c1", mean("c1"), "count", nOps),
      Metric("distill.c2", mean("c2"), "count", nOps),
      Metric("distill.c3_worst", mean("c3_worst"), "count", nOps),
      Metric("distill.c3_best", mean("c3_best"), "count", nOps),
      Metric("distill.edges", mean("edges"), "count", nOps),
      Metric("distill.contradictions", mean("contradictions"), "count", nOps),
      Metric("distill.kept_ratio", ratio("kept", "original"), "ratio", nOps),
      Metric("present.ms", per(selfMs(layer("present")), nOps), "ms", nOps),
      Metric("present.interactions", mean("interactions"), "count", nOps),
      Metric("present.found", mean("found"), "ratio", nOps),
      Metric("op.ms", per(opMs.sum, nOps), "ms", nOps),
      Metric("op.count", nOps.toDouble, "count", nOps),
      Metric("trace.probe_ms", per(probeMs, nOps), "ms", nOps),
      Metric("trace.unaccounted_ms", per(selfMs(layer("op")), nOps), "ms", nOps),
      Metric("trace.overhead_ratio", overhead(plain, tw), "ratio", nOps),
      Metric("trace.spans", spans.size.toDouble, "count", nOps),
      Metric("jvm.gc_ms.setup", setupGcMs.toDouble, "ms", 1),
      Metric("jvm.gc_ms.ops", tw.gcMs.toDouble, "ms", nOps),
    )
    // Only `search` runs SELECT-ALL and SELECT-BEST; their times are printed, not reported.
    val otherStrategies =
      if (a.workload != "search") Vector.empty
      else Vector("SA", "SB").flatMap(st => Vector(
        Metric(s"select.ms.$st", byStrategy(st)._1, "ms", nOps),
        Metric(s"jgs.ms.$st", byStrategy(st)._2, "ms", nOps)))
    printTable(s"${a.workload}: per layer (seed ${a.seed}, ${a.seconds} s, traced; per op unless noted)",
      ms ++ otherStrategies)
    printAccounting(inOps, self, opMs.sum, nOps)
    ms
  }

  /** Where each op's time went. Selection is the separate select timing,
    * JGS the rest of the facade's span; probes are the traced run's own
    * extra calls; the remainder is op time no span covers.
    */
  private def printAccounting(inOps: Vector[Span], self: Map[Int, Long], opMs: Double, nOps: Int): Unit = {
    def ms(f: Span => Boolean, t: Span => Long = s => self(s.id)) = inOps.filter(f).map(t).sum / 1e6
    val select = ms(_.layer == "select", _.durNs)
    val rows = Vector(
      "select" -> select,
      "jgs" -> (ms(_.layer == "search") - select),
      "discovery" -> ms(_.layer == "discovery"),
      "materialize" -> ms(_.layer == "materialize"),
      "distill" -> ms(_.layer == "distill"),
      "present" -> ms(_.layer == "present"),
      "trace probes" -> (select + ms(_.layer == "trace")),
      "unaccounted" -> ms(_.layer == "op"))
    val n = math.max(1, nOps)
    println(f"accounting of $nOps traced ops, ${opMs / n}%.3f ms per op:")
    for ((l, t) <- rows)
      println(f"  ${l}%-14s ${t / n}%12.3f ms/op  ${if (opMs > 0) 100 * t / opMs else 0.0}%6.2f%%")
  }
}

object Report {

  final case class Metric(name: String, value: Double, unit: String, n: Int, note: String = "")

  /** Traced over untraced op time on the ops both windows ran, minus 1. */
  def overhead(plain: Window, traced: Window): Double = {
    val m = math.min(plain.ops.size, traced.ops.size)
    if (m == 0) 0.0
    else traced.ops.take(m).map(_.ns).sum.toDouble / plain.ops.take(m).map(_.ns).sum - 1
  }

  def printTable(title: String, ms: Seq[Metric]): Unit = {
    println(title)
    println(f"  ${"metric"}%-32s ${"value"}%16s  ${"unit"}%-11s ${"n"}%6s")
    for (m <- ms) {
      val v = if (m.value.isNaN) "n/a" else f"${m.value}%.4f"
      println(f"  ${m.name}%-32s ${v}%16s  ${m.unit}%-11s ${m.n}%6d  ${m.note}")
    }
  }

  def jsonString(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"; case '\t' => "\\t"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""

  def json(correct: Boolean, attempted: Int, failed: Int, ms: Seq[Metric]): String = {
    val body = ms.map(m => s"${jsonString(m.name)}: {\"value\": ${m.value}, \"unit\": ${jsonString(m.unit)}}")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${body.mkString(", ")}}}"""
  }

  /** One JSON line per span, then one per traced op with its funnel. */
  def writeTrace(f: File, spans: Seq[Span], tw: Window): Unit = {
    val pw = new PrintWriter(f, "UTF-8")
    try {
      for (s <- spans)
        pw.println(s"""{"span": ${s.id}, "name": ${jsonString(s.name)}, "layer": ${jsonString(s.layer)}, "parent": ${s.parent}, "op": ${s.op}, "start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "spark_jobs": ${s.sparkJobs}, "spark_tasks": ${s.sparkTasks}, "task_busy_ms": ${s.taskBusyMs}}""")
      for (r <- tw.ops; o <- r.outcome.toOption) {
        val funnel = o.funnel.toVector.sortBy(_._1).map { case (k, v) => s"${jsonString(k)}: $v" }.mkString(", ")
        pw.println(s"""{"op": ${r.k}, "key": ${jsonString(o.key)}, "ns": ${r.ns}, "funnel": {$funnel}, "failures": [${o.failures.map(jsonString).mkString(", ")}]}""")
      }
    } finally pw.close()
  }
}

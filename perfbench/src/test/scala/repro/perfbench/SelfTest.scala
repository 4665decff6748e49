package repro.perfbench

import repro.SparkEnv

/** Checks the benchmark's own arithmetic: the percentile rule, self time
  * under nested and overlapping spans, the op count of a timed window, and
  * attribution of Spark counters to the enclosing span. Run with `python3 perfbench/run.py --self-test`;
  * exits non-zero on the first failed check.
  */
object SelfTest {
  private var passed = 0

  private def check(name: String)(cond: => Boolean): Unit =
    if (cond) passed += 1
    else { Console.err.println(s"self-test failed: $name"); System.exit(1) }

  private def span(id: Int, parent: Int, start: Long, end: Long) = Span(id, s"s$id", "l", parent, 0, start, end)

  def percentiles(): Unit = {
    val xs = (1 to 200).map(_.toDouble)
    check("p50 is the nearest rank")(Trace.percentile(xs, 0.5) == 100.0)
    check("p95 of 200")(Trace.percentile(xs, 0.95) == 190.0)
    check("p100 is the maximum")(Trace.percentile(xs, 1.0) == 200.0)
    check("one sample")(Trace.percentile(Seq(7.0), 0.5) == 7.0)
    check("two samples: lower middle")(Trace.percentile(Seq(9.0, 3.0), 0.5) == 3.0)
    check("ten beyond p95 of 200")(Trace.beyond(200, 0.95) == 10)
    check("ten beyond p90 of 100")(Trace.beyond(100, 0.9) == 10)
    check("no p90 below 100 samples")(!Trace.reportable(99, 0.9))
    check("p90 at 100 samples")(Trace.reportable(100, 0.9))
    check("no p95 below 200 samples")(!Trace.reportable(199, 0.95))
    check("p95 at 200 samples")(Trace.reportable(200, 0.95))
    check("p99 at 1000 samples")(Trace.reportable(1000, 0.99) && !Trace.reportable(999, 0.99))
  }

  def selfTimes(): Unit = {
    // root [0,100] has children a [10,40] and b [30,60] (overlapping) and
    // c [90,120] (runs past its parent); a has a child [15,20].
    val spans = Vector(span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 60),
      span(3, 0, 90, 120), span(4, 1, 15, 20))
    val self = Trace.selfNs(spans)
    check("overlapping children count once")(self(0) == 100 - 50 - 10)
    check("nested child is subtracted from its parent only")(self(1) == 25)
    check("leaf self time is its duration")(self(2) == 30 && self(4) == 5)
    check("self times never exceed durations")(spans.forall(s => self(s.id) <= s.durNs))
  }

  def attribution(): Unit = {
    var current = -1
    val tr = new Tracer(true, id => current = id)
    tr.span("outer", "l") {
      tr.addJob(current)
      tr.span("inner", "l") { tr.addJob(current); tr.addJob(current); tr.addTask(current, 5) }
      check("closing a span restores its parent as current")(current == tr.current && tr.current >= 0)
      tr.addTask(current, 7)
    }
    check("no span is current at the end")(current == -1)
    val spans = tr.spans
    val (outer, inner) = (spans.find(_.name == "outer").get, spans.find(_.name == "inner").get)
    check("inner span's parent is outer")(inner.parent == outer.id)
    check("jobs go to the innermost open span")(inner.sparkJobs == 2 && outer.sparkJobs == 1)
    check("task time goes to the innermost open span")(inner.taskBusyMs == 5 && outer.taskBusyMs == 7)
    val incl = Trace.inclusiveCounts(spans)
    check("inclusive counts add the children")(incl(outer.id) == ((3L, 2L, 12L)))

    val off = new Tracer(false)
    check("a disabled tracer records nothing")(off.span("x", "l")(42) == 42 && off.spans.isEmpty)

    // The same attribution through Spark: a job submitted inside a span is
    // counted there once the listener bus has drained.
    val spark = SparkEnv.session
    var counters: SparkCounters = null
    val st = new Tracer(true, id => counters.setCurrent(id))
    counters = new SparkCounters(spark.sparkContext, st)
    spark.sparkContext.addSparkListener(counters)
    st.span("parent", "l") {
      st.span("child", "l")(spark.range(0, 1000, 1, 4).count())
    }
    spark.range(0, 10).count() // outside every span
    counters.drain()
    val ss = st.spans
    val child = ss.find(_.name == "child").get
    check("Spark jobs are attributed to the span that submitted them")(
      child.sparkJobs >= 1 && ss.find(_.name == "parent").get.sparkJobs == 0)
    check("Spark tasks follow their job's span")(child.sparkTasks >= 4)
    spark.stop()
  }

  def overheadAndJson(): Unit = {
    import Main.{OpRecord, Window}
    def w(ns: Long*) = Window(ns.zipWithIndex.map { case (n, k) => OpRecord(k, n, Left("")) }.toVector, ns.sum, 0, ns.size)
    check("overhead compares the ops both windows ran")(
      math.abs(Report.overhead(w(100, 100, 100), w(110, 110)) - 0.1) < 1e-12)
    // Three ops in a 10 s window: two of 3 s, then one of 8 s started at 6 s.
    check("the op in flight counts by its part inside the window")(
      math.abs(Main.completedBy(10000L, 3, 6000L, 8000L) - 2.5) < 1e-12)
    check("an op ending before the deadline counts whole")(Main.completedBy(10000L, 2, 4000L, 5000L) == 2.0)
    check("no ops, nothing completed")(Main.completedBy(10000L, 0, 0L, 0L) == 0.0)
    check("throughput is completed ops per second of the window")(
      Window(Vector.empty, 2000000000L, 0, 2.5).perSecond == 1.25)
    val line = Report.json(true, 3, 0, Seq(Report.Metric("ops_per_s", 1.25, "1/s", 3)))
    check("JSON line")(line ==
      """{"correct": true, "attempted": 3, "failed": 0, "metrics": {"ops_per_s": {"value": 1.25, "unit": "1/s"}}}""")
  }

  def main(args: Array[String]): Unit = {
    percentiles(); selfTimes(); overheadAndJson(); attribution()
    println(s"self-test: $passed checks passed")
    System.exit(0)
  }
}

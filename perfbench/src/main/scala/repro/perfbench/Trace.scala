package repro.perfbench

import scala.collection.mutable

/** One timed call at a layer boundary. `parent` is -1 for a root span;
  * `op` is the timed operation the span belongs to (-1 during set-up).
  * Spark counters are the jobs, tasks and executor run time of every Spark
  * job submitted while this span was the innermost open one.
  */
final case class Span(id: Int, name: String, layer: String, parent: Int, op: Int,
                      startNs: Long, endNs: Long,
                      sparkJobs: Long = 0, sparkTasks: Long = 0, taskBusyMs: Long = 0) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the single client thread. A disabled tracer
  * runs the wrapped code and records nothing, so the untraced run pays one
  * branch per call. `onCurrent` is told the innermost open span id (or -1)
  * whenever it changes; the Spark listener uses it to tag jobs.
  */
final class Tracer(val enabled: Boolean, onCurrent: Int => Unit = _ => ()) {
  private val open = mutable.Stack.empty[(Int, String, String, Int, Long)]
  private val done = mutable.ArrayBuffer.empty[Span]
  private val jobs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private val tasks = mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private val busy = mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private var nextId = 0
  var op: Int = -1

  def current: Int = if (open.isEmpty) -1 else open.top._1

  def span[A](name: String, layer: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = nextId; nextId += 1
      open.push((id, name, layer, current, System.nanoTime()))
      onCurrent(id)
      try f
      finally {
        val end = System.nanoTime()
        val (_, n, l, parent, start) = open.pop()
        done += Span(id, n, l, parent, op, start, end)
        onCurrent(current)
      }
    }

  /** Spark counters, attributed to the span that was innermost when the
    * job was submitted. Called from the listener thread.
    */
  def addJob(spanId: Int): Unit = synchronized { jobs(spanId) += 1 }
  def addTask(spanId: Int, runMs: Long): Unit = synchronized { tasks(spanId) += 1; busy(spanId) += runMs }

  def spans: Vector[Span] = synchronized {
    done.toVector.map(s => s.copy(sparkJobs = jobs(s.id), sparkTasks = tasks(s.id), taskBusyMs = busy(s.id)))
      .sortBy(_.id)
  }
}

object Trace {

  /** Self time per span: its duration minus the part of its interval that
    * its direct children cover (overlapping children counted once).
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L; var reach = s.startNs
      for ((a, b) <- kids if b > reach) { covered += b - math.max(a, reach); reach = b }
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Spark counters of a span plus those of every span below it. */
  def inclusiveCounts(spans: Seq[Span]): Map[Int, (Long, Long, Long)] = {
    val children = spans.groupBy(_.parent)
    val memo = mutable.Map.empty[Int, (Long, Long, Long)]
    def go(s: Span): (Long, Long, Long) = memo.getOrElseUpdate(s.id,
      children.getOrElse(s.id, Nil).map(go).foldLeft((s.sparkJobs, s.sparkTasks, s.taskBusyMs)) {
        case ((j, t, b), (j2, t2, b2)) => (j + j2, t + t2, b + b2)
      })
    spans.map(s => s.id -> go(s)).toMap
  }

  /** Nearest-rank percentile of `xs` (0 < p ≤ 1). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty && p > 0 && p <= 1)
    val sorted = xs.sorted
    sorted(math.max(0, math.ceil(p * sorted.size - 1e-9).toInt - 1))
  }

  /** Samples strictly beyond the nearest-rank `p` percentile of `n`. */
  def beyond(n: Int, p: Double): Int = n - math.ceil(p * n - 1e-9).toInt

  /** The percentile rule: a percentile is reported only when at least ten
    * of `n` samples lie beyond it.
    */
  def reportable(n: Int, p: Double): Boolean = beyond(n, p) >= 10
}

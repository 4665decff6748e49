package repro.perfbench

import scala.collection.concurrent.TrieMap

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Counts Spark jobs, tasks and executor run time per span. The client
  * thread tags each job with the innermost open span through a local
  * property, so attribution does not depend on when the listener bus
  * delivers the events.
  */
final class SparkCounters(sc: SparkContext, tracer: => Tracer) extends SparkListener {
  import SparkCounters.SpanProperty

  private val stageSpan = TrieMap.empty[Int, Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanProperty))).fold(-1)(_.toInt)
    e.stageIds.foreach(stageSpan.put(_, span))
    tracer.addJob(span)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val runMs = Option(e.taskMetrics).fold(0L)(_.executorRunTime)
    tracer.addTask(stageSpan.getOrElse(e.stageId, -1), runMs)
  }

  /** Tag jobs the client thread submits from now on with `span`. */
  def setCurrent(span: Int): Unit = sc.setLocalProperty(SpanProperty, span.toString)

  /** Block until every posted event reached the listeners. */
  def drain(): Unit = org.apache.spark.PerfbenchListenerBus.drain(sc)
}

object SparkCounters {
  val SpanProperty = "perfbench.span"
}

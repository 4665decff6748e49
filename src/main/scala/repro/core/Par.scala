package repro.core

import java.util.concurrent.{Callable, ForkJoinPool}
import scala.jdk.CollectionConverters._

/** Fans independent per-item work out over the JDK common pool. */
object Par {

  /** `items.map(f)`, one common-pool task per item, results in input order.
    * If any item fails, the first failing item's own exception or error is
    * rethrown once every task has finished. Each task hands its failure back
    * as a value: `ForkJoinTask.get` would wrap it in an `ExecutionException`
    * around a re-constructed copy whose message names the original.
    */
  def map[A, B](items: Seq[A])(f: A => B): Vector[B] = {
    val tasks = items.map { a =>
      (() => try Right(f(a)) catch { case t: Throwable => Left(t) }): Callable[Either[Throwable, B]]
    }
    ForkJoinPool.commonPool().invokeAll(tasks.asJava).asScala.toVector.map(_.get() match {
      case Right(b) => b
      case Left(t)  => throw t
    })
  }
}

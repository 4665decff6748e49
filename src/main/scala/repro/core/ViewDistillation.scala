package repro.core

import scala.collection.mutable

/** One of the paper's 4C categories (Definitions 5-9). */
sealed abstract class Rel(val name: String) { override def toString: String = name }
object Rel {
  case object Compatible    extends Rel("compatible")
  case object Contained     extends Rel("contained")     // edge (a, b): a ⊇ b
  case object Complementary extends Rel("complementary")
  case object Contradictory extends Rel("contradictory")
}

/** A labelled edge in the 4C graph G (Problem 3). `key` is the candidate
  * key the Complementary/Contradictory label is relative to (the paper's
  * note: a pair may be contradictory under k1 and complementary under k2).
  */
final case class ViewEdge(a: String, b: String, rel: Rel, key: Option[String] = None)

/** A contradiction signal: a key value that maps to different rows across
  * views; `sides` groups views by which row they assert (Alg. 3 line 16-18).
  */
final case class Contradiction(key: String, keyValue: String, sides: Vector[Set[String]]) {
  require(sides.size >= 2, "a contradiction needs at least two row-groups")
  def views: Set[String] = sides.flatten.toSet
  /** Degree of discrimination (§VI-B-3): views agreeing with one side. */
  def discrimination: Int = sides.map(_.size).max
  /** The contradiction restricted to surviving views; None once fewer than
    * two sides remain (the signal can no longer discriminate).
    */
  def restrictTo(live: Set[String]): Option[Contradiction] = {
    val kept = sides.map(_.intersect(live)).filter(_.nonEmpty)
    if (kept.size >= 2) Some(copy(sides = kept)) else None
  }
}

/** Result of the distillation pipeline for one candidate-view collection:
  * the Table IV columns plus the labelled graph and contradiction signals
  * consumed downstream by VIEW-PRESENTATION.
  */
final case class DistillReport(
    original: Int,
    afterCompatible: Int,    // Table IV column C1
    afterContained: Int,     // Table IV column C2
    c3Worst: Int,            // C3, least-reducing candidate key
    c3Best: Int,             // C3, most-reducing candidate key
    edges: Vector[ViewEdge],
    distilled: Vector[MatView], // views kept after C1+C2 (Alg. 3's strategy)
    contradictions: Vector[Contradiction],
)

/** VIEW-DISTILLATION (Algorithm 3).
  *
  * Views are compared only inside SCHEMA-BASED-BLOCKS; compatibility and
  * containment are decided on row sets (the paper's row-wise hash H[V]);
  * complementarity and contradiction are decided relative to shared
  * candidate keys via an inverted index over key values. Contradictory
  * overrides complementary for the same key (phase 2 updates phase 1's
  * labels), and the distillation strategy deduplicates compatible views and
  * keeps the largest contained view.
  */
object ViewDistillation {

  /** SCHEMA-BASED-BLOCKS (Alg. 3, line 2): group views by canonical schema. */
  def schemaBlocks(views: Seq[MatView]): Vector[Vector[MatView]] =
    views.groupBy(_.schema).toVector.sortBy(_._1.mkString(","))
      .map(_._2.toVector.sortBy(_.id))

  /** C1: collapse groups of row-set-equal views to one representative. */
  def dedupCompatible(block: Vector[MatView]): (Vector[MatView], Vector[ViewEdge]) = {
    val groups = block.groupBy(_.rowSet).values.toVector.map(_.sortBy(_.id))
    val kept = groups.map(_.head).sortBy(_.id)
    val edges = groups.flatMap(g => g.tail.map(v => ViewEdge(g.head.id, v.id, Rel.Compatible)))
    (kept, edges.sortBy(e => (e.a, e.b)))
  }

  /** C2: keep the largest view of every containment chain (Alg. 3 line
    * 9-11's distillation). Assumes compatible duplicates were removed.
    */
  def keepLargestContained(block: Vector[MatView]): (Vector[MatView], Vector[ViewEdge]) = {
    val bySize = block.sortBy(v => (-v.size, v.id))
    val kept = mutable.ArrayBuffer.empty[MatView]
    val edges = Vector.newBuilder[ViewEdge]
    for (v <- bySize) {
      kept.find(k => v.rowSet.subsetOf(k.rowSet)) match {
        case Some(k) => edges += ViewEdge(k.id, v.id, Rel.Contained)
        case None    => kept += v
      }
    }
    (kept.sortBy(_.id).toVector, edges.result())
  }

  /** Phase 2's inverted index: contradictions among `views` under `key`
    * (only views where `key` is a candidate key participate, Definition 9's
    * `K(V1) = K(V2)` requirement).
    */
  def contradictionsFor(block: Vector[MatView], key: String): Vector[Contradiction] = {
    val keyed = block.filter(_.candidateKeys.contains(key))
    if (keyed.size < 2) return Vector.empty
    // keyValue -> row -> views asserting that row
    val index = mutable.Map.empty[String, mutable.Map[Vector[String], mutable.Set[String]]]
    for (v <- keyed; row <- v.rowSet) {
      val kv = row(v.columnIndex(key))
      index.getOrElseUpdate(kv, mutable.Map.empty)
        .getOrElseUpdate(row, mutable.Set.empty) += v.id
    }
    index.toVector.collect {
      case (kv, groups) if groups.size >= 2 =>
        Contradiction(key, kv, groups.toVector.sortBy(_._1.mkString(" ")).map(_._2.toSet))
    }.sortBy(c => (c.key, c.keyValue))
  }

  /** Whether two views contradict under `key` (some shared key value maps
    * to different rows).
    */
  def contradicts(v1: MatView, v2: MatView, key: String): Boolean = {
    val i1 = v1.columnIndex(key); val i2 = v2.columnIndex(key)
    val m1 = v1.rowSet.groupBy(_(i1)); val m2 = v2.rowSet.groupBy(_(i2))
    (m1.keySet intersect m2.keySet).exists(kv => m1(kv) != m2(kv))
  }

  /** Complementary pairs under `key` (Definition 8, with phase-2 override:
    * pairs that contradict under the same key are excluded).
    */
  def complementaryPairs(block: Vector[MatView], key: String): Vector[(MatView, MatView)] = {
    val keyed = block.filter(_.candidateKeys.contains(key)).sortBy(_.id)
    for {
      i <- keyed.indices.toVector; j <- (i + 1 until keyed.size).toVector
      v1 = keyed(i); v2 = keyed(j)
      if (v1.rowSet intersect v2.rowSet).nonEmpty
      if !v1.rowSet.subsetOf(v2.rowSet) && !v2.rowSet.subsetOf(v1.rowSet)
      if !contradicts(v1, v2, key)
    } yield (v1, v2)
  }

  /** Number of views left in `block` after unioning complementary views
    * under `key` (connected components of the complementary graph union
    * into one view each; views without the key are untouched).
    */
  def countAfterUnion(block: Vector[MatView], key: String): Int = {
    val keyed = block.filter(_.candidateKeys.contains(key))
    val others = block.size - keyed.size
    if (keyed.isEmpty) return block.size
    val parent = mutable.Map(keyed.map(v => v.id -> v.id): _*)
    def find(x: String): String = { if (parent(x) != x) parent(x) = find(parent(x)); parent(x) }
    for ((a, b) <- complementaryPairs(block, key)) parent(find(a.id)) = find(b.id)
    others + keyed.map(v => find(v.id)).distinct.size
  }

  /** C3 best/worst counts for one block: min/max over candidate keys shared
    * by ≥ 2 views; no valid shared key ⇒ no unions possible (paper: "many
    * views do not have valid candidate keys, so there are no unionable
    * views").
    */
  def c3Counts(block: Vector[MatView]): (Int, Int) = {
    val keys = block.flatMap(_.candidateKeys).groupBy(identity)
      .collect { case (k, occ) if occ.size >= 2 => k }.toVector.sorted
    if (keys.isEmpty) (block.size, block.size)
    else {
      val counts = keys.map(k => countAfterUnion(block, k))
      (counts.max, counts.min) // (worst = least reduction, best = most)
    }
  }

  /** The full distillation pipeline over a candidate-view collection. Views
    * are compared only inside their schema block, so the blocks run as
    * independent common-pool tasks; their reports combine in block order.
    */
  def distill(views: Seq[MatView]): DistillReport = {
    val parts = Par.map(schemaBlocks(views))(distillBlock)
    DistillReport(views.size, parts.map(_.afterCompatible).sum, parts.map(_.afterContained).sum,
      parts.map(_.c3Worst).sum, parts.map(_.c3Best).sum, parts.flatMap(_.edges).distinct,
      parts.flatMap(_.distilled), parts.flatMap(_.contradictions).distinct)
  }

  /** Algorithm 3 over one schema block. */
  private def distillBlock(block: Vector[MatView]): DistillReport = {
    val (c1, compatEdges) = dedupCompatible(block)
    val (c2, containEdges) = keepLargestContained(c1)
    val keys = c2.flatMap(_.candidateKeys).distinct.sorted
    val byKey = keys.map { k =>
      val cs = contradictionsFor(c2, k)
      val contradictory = cs.flatMap { c =>
        for {
          i <- c.sides.indices; j <- i + 1 until c.sides.size
          a <- c.sides(i).toVector.sorted; b <- c.sides(j).toVector.sorted
        } yield ViewEdge(a, b, Rel.Contradictory, Some(k))
      }
      val complementary = complementaryPairs(c2, k).map { case (a, b) =>
        ViewEdge(a.id, b.id, Rel.Complementary, Some(k))
      }
      (cs, contradictory ++ complementary)
    }
    val (worst, best) = c3Counts(c2)
    DistillReport(block.size, c1.size, c2.size, worst, best,
      compatEdges ++ containEdges ++ byKey.flatMap(_._2), c2, byKey.flatMap(_._1))
  }

  /** Fig. 2 machinery: sequential contradiction-driven pruning. At each
    * step the most discriminating remaining contradiction is presented; the
    * kept side is chosen to maximize (best case) or minimize (worst case)
    * the number of views pruned. Returns the remaining-view counts after
    * each step.
    */
  def contradictionPruningSteps(report: DistillReport, maxSteps: Int, bestCase: Boolean): Vector[Int] = {
    var current = report.distilled.map(_.id).toSet
    val counts = Vector.newBuilder[Int]
    var steps = 0
    var continue = true
    while (steps < maxSteps && continue) {
      val live = report.contradictions.flatMap(_.restrictTo(current))
      if (live.isEmpty) continue = false
      else {
        val c = live.maxBy(c0 => (c0.discrimination, c0.keyValue))
        val sidesBySize = c.sides.sortBy(_.size)
        val keep = if (bestCase) sidesBySize.head else sidesBySize.last
        current --= (c.views -- keep)
        counts += current.size
        steps += 1
      }
    }
    counts.result()
  }
}

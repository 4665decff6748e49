package repro.discovery

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

import repro.core.{ColumnRef, JoinEdge}
import repro.data.TableRepo

/** The online discovery index (Appendix A of the paper): the compact result
  * of the offline [[DiscoveryIndexBuilder]], serving Aurum's three functions
  * — SEARCH-KEYWORD, NEIGHBORS and GENERATE-JOIN-GRAPHS — to the rest of Ver.
  *
  * @param columnValues distinct values per column
  * @param containment  containment score per canonically-ordered joinable
  *                     column pair (score ≥ `threshold` only)
  * @param threshold    the containment threshold the index was built at
  */
final class DiscoveryIndex(
    val columnValues: Map[ColumnRef, Set[String]],
    val containment: Map[(ColumnRef, ColumnRef), Double],
    val threshold: Double,
) {
  /** Sorted distinct values of a column (workload-generation helper). */
  def values(c: ColumnRef): Vector[String] =
    columnValues.getOrElse(c, sys.error(s"unknown column $c")).toVector.sorted

  /** Case-insensitive value inverted index, built in one pass. A column
    * holding several case variants of a value is listed once per variant.
    */
  private lazy val valueIndex: Map[String, Vector[ColumnRef]] = {
    val holders = mutable.HashMap.empty[String, mutable.ArrayBuffer[ColumnRef]]
    for ((c, vs) <- columnValues; v <- vs) holders.getOrElseUpdate(v.toLowerCase, mutable.ArrayBuffer.empty) += c
    holders.iterator.map { case (v, cs) => v -> cs.toVector.sortBy(c => (c.table, c.column)) }.toMap
  }

  /** SEARCH-KEYWORD(value): columns containing the value (exact match,
    * case-insensitive — see DESIGN.md substitution 6 for the fuzzy case).
    */
  def searchKeyword(value: String): Vector[ColumnRef] =
    valueIndex.getOrElse(value.toLowerCase, Vector.empty)

  /** Attribute-name search: columns whose name contains the keyword. */
  def searchAttribute(keyword: String): Vector[ColumnRef] = {
    val k = keyword.toLowerCase
    columnValues.keys.toVector.filter(_.column.toLowerCase.contains(k))
      .sortBy(c => (c.table, c.column))
  }

  /** NEIGHBORS(c): columns joinable with `c` at the index's threshold. */
  lazy val neighbors: Map[ColumnRef, Set[ColumnRef]] = {
    val sym = containment.keys.toVector.flatMap { case (a, b) => Vector(a -> b, b -> a) }
    sym.groupBy(_._1).map { case (c, ns) => c -> ns.map(_._2).toSet }
      .withDefaultValue(Set.empty)
  }

  def containmentOf(a: ColumnRef, b: ColumnRef): Double =
    containment.getOrElse((a, b), containment.getOrElse((b, a), 0.0))

  /** Join edges grouped by (sorted) table pair. */
  lazy val edgesBetween: Map[(String, String), Vector[JoinEdge]] =
    containment.keys.toVector
      .map { case (a, b) => JoinEdge(a, b) }
      .groupBy(e => { val ts = e.tables.toVector.sorted; (ts(0), ts(1)) })
      .map { case (k, es) => k -> es.distinct.sortBy(_.toString) }
      .withDefaultValue(Vector.empty)

  def joinEdges(t1: String, t2: String): Vector[JoinEdge] = {
    val key = if (t1 <= t2) (t1, t2) else (t2, t1)
    edgesBetween(key)
  }

  /** Tables adjacent to `t` via at least one join edge. */
  lazy val tableNeighbors: Map[String, Vector[String]] =
    edgesBetween.keys.toVector
      .flatMap { case (a, b) => Vector(a -> b, b -> a) }
      .groupBy(_._1)
      .map { case (t, ns) => t -> ns.map(_._2).distinct.sorted }
      .withDefaultValue(Vector.empty)

  /** GENERATE-JOIN-GRAPHS({t1, t2}, ρ): all join graphs with ≤ ρ edges
    * connecting the pair — direct edges plus (for ρ ≥ 2) two-hop paths
    * through one intermediate table. Graphs are ordered smallest-first
    * (paper: "smaller graphs rank higher") and capped at `maxGraphs`, so a
    * cap can never evict a direct join in favour of a longer path.
    */
  def generateJoinGraphs(t1: String, t2: String, rho: Int = 2,
                         maxGraphs: Int = 64): Vector[Set[JoinEdge]] = {
    require(rho >= 1, "rho must be ≥ 1")
    if (t1 == t2) return Vector(Set.empty)
    val direct: Vector[Set[JoinEdge]] = joinEdges(t1, t2).map(e => Set(e))
    val twoHop: Vector[Set[JoinEdge]] =
      if (rho < 2) Vector.empty
      else
        (tableNeighbors(t1).toSet intersect tableNeighbors(t2).toSet)
          .filterNot(x => x == t1 || x == t2).toVector.sorted
          .flatMap { x =>
            for (e1 <- joinEdges(t1, x); e2 <- joinEdges(x, t2)) yield Set(e1, e2)
          }
    (direct ++ twoHop.sortBy(_.toString)).take(maxGraphs)
  }

  /** Connected components of a column set under the NEIGHBORS relation —
    * the clustering step of COLUMN-SELECTION (Algorithm 4, line 5).
    */
  def connectedComponents(cols: Set[ColumnRef]): Vector[Set[ColumnRef]] = {
    var remaining = cols
    val out = Vector.newBuilder[Set[ColumnRef]]
    while (remaining.nonEmpty) {
      var comp = Set(remaining.head)
      var frontier = comp
      while (frontier.nonEmpty) {
        val next = frontier.flatMap(c => neighbors(c)).intersect(remaining) -- comp
        comp ++= next; frontier = next
      }
      out += comp
      remaining --= comp
    }
    out.result().sortBy(_.toVector.map(_.toString).sorted.mkString(","))
  }
}

/** Offline builder: reads each table's driver-side rows once and scores
  * every cross-table column pair by exact containment, counting overlaps
  * through a value → columns inverted index (the exact approach of JOSIE,
  * Zhu et al., SIGMOD 2019). The corpora are kilobytes, so a Spark self-join
  * would only add overhead; MinHash containment sketches (Lazo) become the
  * right design once the values no longer fit on the driver.
  */
object DiscoveryIndexBuilder {
  /** `spark` is unused: the repo's tables are driver-side rows. */
  def build(spark: SparkSession, repo: TableRepo, threshold: Double = 0.8): DiscoveryIndex = {
    val columnValues: Map[ColumnRef, Set[String]] = repo.tables.toVector.flatMap { case (t, table) =>
      table.columns.zipWithIndex.map { case (c, i) => ColumnRef(t, c) -> table.rows.iterator.map(_(i)).toSet }
    }.toMap
    // Case-sensitive, unlike DiscoveryIndex.searchKeyword: "Paris" and
    // "paris" do not join.
    val holders = mutable.HashMap.empty[String, List[ColumnRef]]
    for ((c, vs) <- columnValues; v <- vs) holders(v) = c :: holders.getOrElse(v, Nil)
    // One entry per unordered pair (canonical order); Ver never self-joins a table.
    val overlap = mutable.HashMap.empty[(ColumnRef, ColumnRef), Int]
    for (cs <- holders.valuesIterator; a <- cs; b <- cs if a.table != b.table && a.toString < b.toString)
      overlap((a, b)) = overlap.getOrElse((a, b), 0) + 1
    val containment = overlap.iterator.map { case ((a, b), n) =>
      (a, b) -> math.max(n.toDouble / columnValues(a).size, n.toDouble / columnValues(b).size)
    }.filter(_._2 >= threshold).toMap
    new DiscoveryIndex(columnValues, containment, threshold)
  }
}

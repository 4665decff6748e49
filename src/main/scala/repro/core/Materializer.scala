package repro.core

import repro.data.TableRepo

/** A materialized candidate PJ-view held on the driver for
  * VIEW-DISTILLATION and VIEW-PRESENTATION.
  *
  * The schema is canonicalized (column names sorted, rows re-ordered to
  * match) so SCHEMA-BASED-BLOCKS can group views by name equality, and rows
  * are distinct (a view is a set of tuples, Definition 5's `(V1 ∩ V2)`
  * semantics).
  */
final case class MatView(id: String, spec: ViewSpec, schema: Vector[String], rows: Vector[Vector[String]]) {
  require(rows.forall(_.size == schema.size), s"$id: ragged rows")
  /** The paper's row-wise hash H[V]; exact row sets at this scale. */
  lazy val rowSet: Set[Vector[String]] = rows.toSet
  def size: Int = rowSet.size
  /** Single-column candidate keys: columns whose values are row-unique. */
  lazy val candidateKeys: Vector[String] = {
    val distinctRows = rowSet.toVector
    schema.indices.collect {
      case i if distinctRows.map(_(i)).distinct.size == distinctRows.size => schema(i)
    }.toVector
  }
  def columnIndex(name: String): Int = {
    val i = schema.indexOf(name)
    require(i >= 0, s"$id: no column $name in $schema")
    i
  }
}

object MatView {
  /** Build from already-collected rows, canonicalizing schema order. */
  def fromRows(id: String, spec: ViewSpec, schema: Vector[String], rows: Seq[Seq[String]]): MatView = {
    val order = schema.zipWithIndex.sortBy(_._1).map(_._2)
    val canonSchema = order.map(schema(_))
    // Rows sort by their NUL-joined text, computed once per row.
    val canonRows = rows.map(r => order.map(r(_)).toVector).distinct
      .map(r => r.mkString("\u0000") -> r).sortBy(_._1).map(_._2)
    MatView(id, spec, canonSchema, canonRows.toVector)
  }
}

/** The MATERIALIZER: executes a [[ViewSpec]] on the driver as in-memory
  * hash joins + project + distinct over the repo's driver-side tables, as
  * the paper's pandas implementation did.
  */
object Materializer {

  /** Distinct rows of a spec's projection (in projection order). Tables
    * join along the join graph, starting from the first projected column's
    * table; each step hashes the new table on the key columns of every edge
    * connecting it to the tables already joined (multi-edge = AND) and
    * probes with the joined rows. Each scan and each intermediate keeps
    * only the projected columns and the endpoints of edges not yet joined,
    * as a set: exact under the view's set semantics, and what keeps
    * intermediates small.
    */
  private def rows(spec: ViewSpec, repo: TableRepo): Seq[Vector[String]] = {
    require(spec.connected, s"disconnected spec $spec")
    var remaining = spec.edges
    def live: Set[ColumnRef] = spec.projection.toSet ++ remaining.flatMap(e => Seq(e.left, e.right))

    val head = spec.projection.head.table
    val first = repo(head)
    var schema = first.columns.map(ColumnRef(head, _)).filter(live)
    var joined: Set[Vector[String]] = {
      val idx = schema.map(c => first.columns.indexOf(c.column))
      first.rows.iterator.map(r => idx.map(r(_))).toSet
    }
    var reached = Set(head)
    while (reached != spec.tables) {
      val next = remaining.find(e => e.tables.exists(reached) && !e.tables.subsetOf(reached))
        .getOrElse(sys.error(s"cannot extend join over $spec"))
      val newTable = next.tables.find(!reached(_)).get
      val connecting = remaining.filter(e => e.touches(newTable) && e.tables.exists(reached)).toVector
      remaining --= connecting
      val keep = live
      val table = repo(newTable)
      val buildKey = connecting.map(e => table.columns.indexOf(e.endpointIn(newTable).column))
      val newColumns = table.columns.map(ColumnRef(newTable, _)).filter(keep)
      val newIdx = newColumns.map(c => table.columns.indexOf(c.column))
      val hashed = table.rows.groupMap(r => buildKey.map(r(_)))(r => newIdx.map(r(_)))
        .map { case (k, rs) => k -> rs.distinct }
      val probeKey = connecting.map(e => schema.indexOf(e.endpointNotIn(newTable)))
      val kept = schema.indices.filter(i => keep(schema(i))).toVector
      joined = for {
        r <- joined
        matches <- hashed.get(probeKey.map(r(_))).toSeq
        m <- matches
      } yield kept.map(r(_)) ++ m
      schema = kept.map(schema(_)) ++ newColumns
      reached += newTable
    }
    val out = spec.projection.map(schema.indexOf)
    joined.iterator.map(r => out.map(r(_))).toVector
  }

  /** Bare output names, suffixing duplicates positionally (`state`,
    * `state_2`, …) so a view's schema has unique column names.
    */
  def dedupeNames(names: Vector[String]): Vector[String] = {
    val seen = scala.collection.mutable.Map.empty[String, Int]
    names.map { n =>
      val k = seen.getOrElse(n, 0) + 1
      seen(n) = k
      if (k == 1) n else s"${n}_$k"
    }
  }

  /** Materialize one spec as a [[MatView]]: joins along the join graph,
    * then projects the spec's columns (named by their bare source column
    * name; collisions get positional suffixes) and deduplicates.
    */
  def materialize(repo: TableRepo, spec: ViewSpec, id: String): MatView =
    MatView.fromRows(id, spec, dedupeNames(spec.projection.map(_.column)), rows(spec, repo))

  /** Materialize up to `limit` specs, in their ranked order, one
    * common-pool task per spec; each view's id (`v0000`, …) is its rank.
    */
  def materializeAll(repo: TableRepo, specs: Seq[ViewSpec], limit: Int = Int.MaxValue): Vector[MatView] =
    Par.map(specs.take(limit).toVector.zipWithIndex) { case (s, i) => materialize(repo, s, f"v$i%04d") }
}

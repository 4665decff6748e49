package repro.data

import repro.core.{ColumnRef, ViewSpec}

/** Ground-truth query over a repo: the PJ-view spec the noisy QBE queries
  * are generated from (§VI-B), plus, per projected ground-truth column, the
  * designated *noise column* (Jaccard containment ≥ 0.8 w.r.t. the ground
  * truth column) that Medium/High-noise queries sample spurious values from.
  */
final case class GroundTruth(
    name: String,
    spec: ViewSpec,
    noiseColumns: Map[ColumnRef, ColumnRef],
) {
  require(spec.projection.forall(noiseColumns.contains),
    s"$name: every ground-truth column needs a noise column")
}

/** One table of a repo, held on the driver: its column names and its
  * all-string rows. Generators are driver-side (tables are small) so
  * workloads are bit-deterministic in their seed. Cells are non-null, as in
  * a CSV file: a ragged row or a `null` cell is rejected here, the one place
  * tables are built.
  */
final case class Table(columns: Vector[String], rows: Vector[Vector[String]]) {
  require(rows.forall(_.size == columns.size), s"ragged rows for schema $columns")
  require(rows.forall(_.forall(_ != null)), s"null cell in a table with schema $columns: cells must be non-null strings")
}

object Table {
  def apply(columns: Seq[String], rows: Seq[Seq[String]]): Table =
    new Table(columns.toVector, rows.iterator.map(_.toVector).toVector)
}

/** A named pathless table collection: tables have all-string schemas (as in
  * a real CSV lake — types, keys and FKs are absent by construction) and no
  * join-path metadata. Ground truths are carried for workload generation and
  * evaluation only; no component of Ver reads them.
  */
final case class TableRepo(
    name: String,
    tables: Map[String, Table],
    groundTruths: Vector[GroundTruth],
) {
  def apply(table: String): Table =
    tables.getOrElse(table, sys.error(s"unknown table $table in repo $name"))
  def columnRefs: Vector[ColumnRef] =
    tables.toVector.sortBy(_._1).flatMap { case (t, table) => table.columns.map(ColumnRef(t, _)) }
}

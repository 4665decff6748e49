package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import scala.jdk.CollectionConverters._

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

/** A named pathless table collection: tables have all-string schemas (as in
  * a real CSV lake — types, keys and FKs are absent by construction) and no
  * join-path metadata. Ground truths are carried for workload generation and
  * evaluation only; no component of Ver reads them.
  */
final case class TableRepo(
    name: String,
    tables: Map[String, DataFrame],
    groundTruths: Vector[GroundTruth],
) {
  def apply(table: String): DataFrame =
    tables.getOrElse(table, sys.error(s"unknown table $table in repo $name"))
  def columnRefs: Vector[ColumnRef] =
    tables.toVector.sortBy(_._1).flatMap { case (t, df) => df.columns.toVector.map(ColumnRef(t, _)) }
}

object TableRepo {
  /** Build an all-string DataFrame from driver-side rows. Generators are
    * driver-side (tables are small) so workloads are bit-deterministic in
    * their seed. Cells are non-null, as the schema declares: a `null` cell
    * is rejected here, the one place tables are built.
    */
  def df(spark: SparkSession, cols: Seq[String], rows: Seq[Seq[String]]): DataFrame = {
    require(rows.forall(_.size == cols.size), s"ragged rows for schema $cols")
    require(rows.forall(_.forall(_ != null)), s"null cell in a table with schema $cols: cells must be non-null strings")
    val schema = StructType(cols.map(StructField(_, StringType, nullable = false)))
    spark.createDataFrame(rows.map(r => Row.fromSeq(r)).asJava, schema)
  }
}

package repro.exp

import org.apache.spark.sql.SparkSession

import repro.data.{ChemblLite, OpenDataLite, TableRepo, WdcLite}
import repro.discovery.DiscoveryIndexBuilder

/** Table I: characteristics of the (synthetic stand-in) datasets —
  * #tables, #columns, #joinable column pairs at containment ≥ 0.8, total
  * #rows, and size in bytes of the cell data. Joinable pairs are those of
  * the built [[repro.discovery.DiscoveryIndex]], so the term has one
  * definition; rows and size are counted over the driver-side rows, size in
  * Unicode code points per cell (what Spark's `length` counts).
  */
object TableI {

  final case class DatasetStats(name: String, tables: Int, columns: Int,
                                joinablePairs: Long, rows: Long, sizeBytes: Long) {
    def row: Seq[String] =
      Seq(name, tables.toString, columns.toString, joinablePairs.toString,
        rows.toString, f"${sizeBytes / 1024.0}%.1f KB")
  }

  def stats(spark: SparkSession, repo: TableRepo, threshold: Double = 0.8): DatasetStats = {
    val joinable = DiscoveryIndexBuilder.build(spark, repo, threshold).containment.size
    val tables = repo.tables.values
    val rows = tables.map(_.rows.size.toLong).sum
    val size = tables.iterator.flatMap(_.rows).flatten.map(s => s.codePointCount(0, s.length).toLong).sum
    DatasetStats(repo.name, tables.size, tables.map(_.columns.size).sum, joinable, rows, size)
  }

  def run(spark: SparkSession): Vector[DatasetStats] = Vector(
    stats(spark, ChemblLite(spark)),
    stats(spark, WdcLite(spark)),
    stats(spark, OpenDataLite(spark)),
  )

  def render(rows: Seq[DatasetStats]): String =
    Fmt.table("Table I: Characteristics of Datasets (synthetic stand-ins)",
      Seq("Dataset", "#Tables", "#Columns", "#Joinable Pairs", "#Rows", "Size"),
      rows.map(_.row))
}

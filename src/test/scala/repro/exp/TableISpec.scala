package repro.exp

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.data.{ChemblLite, Table, TableRepo}

/** Pins Table I's `#Rows` and `Size`, counted over the driver-side rows, to
  * the Spark aggregate they replaced: `count(1)` and the sum of `length` (code
  * points) over every cell.
  */
class TableISpec extends SparkSpec {

  private def sparkRowsAndSize(repo: TableRepo): (Long, Long) =
    repo.tables.values.map { table =>
      val df = dataFrame(table)
      val agg = df.select(
        count(lit(1)).as("n"),
        coalesce(sum(df.columns.map(c => length(col(c).cast("string"))).reduce(_ + _)), lit(0L)).as("b"),
      ).collect()(0)
      (agg.getLong(0), agg.getLong(1))
    }.foldLeft((0L, 0L)) { case ((r1, b1), (r2, b2)) => (r1 + r2, b1 + b2) }

  test("rows and size equal Spark's count and sum of length on chembl-lite") {
    val repo = ChemblLite(spark)
    val s = TableI.stats(spark, repo)
    assert((s.rows, s.sizeBytes) == sparkRowsAndSize(repo))
    assert((s.rows, s.sizeBytes) == ((3751L, 148390L)), "Table I in EXPERIMENTS.md: 3,751 rows, 145 KB")
  }
  test("size counts code points, as Spark's length does, on non-ASCII cells") {
    val repo = TableRepo("unicode", Map(
      "t" -> Table(Seq("a", "b"), Seq(Seq("Zürich", "∅"), Seq("𝄞", ""))),
      "empty" -> Table(Seq("c"), Seq()),
    ), Vector.empty)
    val s = TableI.stats(spark, repo)
    assert((s.rows, s.sizeBytes) == sparkRowsAndSize(repo))
    assert((s.rows, s.sizeBytes) == ((2L, 6L + 1 + 1 + 0)), "𝄞 is one code point but two UTF-16 chars")
  }
}

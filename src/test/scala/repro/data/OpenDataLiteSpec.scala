package repro.data

import repro.SparkSpec

class OpenDataLiteSpec extends SparkSpec {
  private lazy val repo = OpenDataLite(spark, nFiller = 40)

  test("contains the WDC families, a renamed copy, and fillers") {
    assert(repo.tables.contains("newspapers"))
    assert(repo.tables.contains("od_newspapers"))
    assert(repo.tables.keys.count(_.startsWith("filler_")) == 40)
  }
  test("filler tables have unique-token columns (no joinable pairs)") {
    val f = repo("filler_0").rows
    assert(f.nonEmpty)
    val firstCol = f.map(_(0))
    assert(firstCol.distinct.size == firstCol.size)
  }
  test("ground truths are inherited from the WDC base") {
    assert(repo.groundTruths.map(_.name) == WdcLite(spark).groundTruths.map(_.name))
  }
  test("the copy shares value universes with the base (cross-copy joins)") {
    def states(t: String) = { val i = repo(t).columns.indexOf("state"); repo(t).rows.map(_(i)).toSet }
    val a = states("newspapers")
    val b = states("od_newspapers")
    assert(a == b)
  }
  test("deterministic in the seed") {
    val again = OpenDataLite(spark, nFiller = 40)
    assert(again.tables.keySet == repo.tables.keySet)
    assert(again("filler_3") == repo("filler_3"))
  }
}

package repro.discovery

import repro.SparkSpec
import repro.core.ColumnRef
import repro.data.{Table, TableRepo}

/** Tests the per-column profiles the index builder collects (distinct value
  * sets, their sizes, and the overlapping column pairs at threshold 0)
  * against counts worked out by hand on a tiny repo.
  */
class ProfilesSpec extends SparkSpec {

  private lazy val repo = TableRepo("prof-test", Map(
    "t1" -> Table(Seq("a", "b"), Seq(
      Seq("x", "1"), Seq("y", "2"), Seq("x", "3"))),
    "t2" -> Table(Seq("a2", "c"), Seq(
      Seq("x", "1"), Seq("y", "9"), Seq("z", "9"))),
    "t3" -> Table(Seq("d"), Seq(Seq("q"))),
  ), Vector.empty)

  private lazy val index = DiscoveryIndexBuilder.build(spark, repo, threshold = 0.0)

  private def triples: Set[(String, String, String)] =
    index.columnValues.toSet[(ColumnRef, Set[String])].flatMap { case (c, vs) =>
      vs.map(v => (c.table, c.column, v))
    }

  test("columnValues melts every (table, column, value) triple") {
    assert(triples.contains(("t1", "a", "x")))
    assert(triples.contains(("t2", "c", "9")))
    assert(triples.contains(("t3", "d", "q")))
  }
  test("columnValues is distinct (duplicate cell values collapse)") {
    assert(index.columnValues(ColumnRef("t1", "a")) == Set("x", "y"))
    assert(triples.size == 5 + 5 + 1) // t1: a{x,y}+b{1,2,3}; t2: a2{x,y,z}+c{1,9}; t3: d{q}
  }
  test("columnStats matches brute-force distinct counts") {
    val stats = index.columnValues.map { case (c, vs) => (c.table, c.column) -> vs.size }
    assert(stats(("t1", "a")) == 2 && stats(("t1", "b")) == 3)
    assert(stats(("t2", "a2")) == 3 && stats(("t2", "c")) == 2)
    assert(stats(("t3", "d")) == 1)
  }
  test("joinablePairs at threshold 0 returns every overlapping pair") {
    // t1.a/t2.a2 share {x,y}, t1.b/t2.c share {1}; every other pair shares nothing
    assert(index.containment.keySet == Set(
      (ColumnRef("t1", "a"), ColumnRef("t2", "a2")),
      (ColumnRef("t1", "b"), ColumnRef("t2", "c"))))
  }
}

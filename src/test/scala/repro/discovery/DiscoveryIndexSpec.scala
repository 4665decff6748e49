package repro.discovery

import org.apache.spark.sql.functions.{col, collect_set}
import org.scalacheck.{Gen, Prop, Test => SCTest}

import repro.SparkSpec
import repro.core.ColumnRef
import repro.data.{ChemblLite, Table, TableRepo, WdcLite}

/** Tests the offline index builder (driver-side rows → inverted-index
  * containment → online index) end to end on small repos, and its
  * containment map against a brute-force pairwise-intersection oracle.
  */
class DiscoveryIndexSpec extends SparkSpec {

  private lazy val repo = TableRepo("idx-test", Map(
    "users"    -> Table(Seq("uid", "city"), Seq(
      Seq("u1", "paris"), Seq("u2", "tokyo"), Seq("u3", "lima"))),
    "orders"   -> Table(Seq("uid", "item"), Seq(
      Seq("u1", "pen"), Seq("u2", "ink"), Seq("u2", "pad"))),
    "cities"   -> Table(Seq("city", "pop"), Seq(
      Seq("paris", "2m"), Seq("tokyo", "14m"), Seq("oslo", "0.7m"))),
    "unrelated" -> Table(Seq("w"), Seq(Seq("zzz"))),
  ), Vector.empty)

  private lazy val index = DiscoveryIndexBuilder.build(spark, repo, threshold = 0.6)

  /** Brute force: every cross-table column pair in canonical order, scored
    * by intersecting its two value sets directly.
    */
  private def oracle(values: Map[ColumnRef, Set[String]], threshold: Double)
      : Map[(ColumnRef, ColumnRef), Double] = {
    val cols = values.keys.toVector
    (for {
      a <- cols; b <- cols if a.table != b.table && a.toString < b.toString
      n = (values(a) intersect values(b)).size if n > 0
      s = math.max(n.toDouble / values(a).size, n.toDouble / values(b).size) if s >= threshold
    } yield (a, b) -> s).toMap
  }

  test("every column is profiled, including join-free ones") {
    assert(index.columnValues.keySet == repo.columnRefs.toSet)
  }
  test("values are collected per column") {
    assert(index.values(ColumnRef("users", "city")) == Vector("lima", "paris", "tokyo"))
  }
  test("values rejects unknown columns") {
    intercept[RuntimeException](index.values(ColumnRef("nope", "x")))
  }
  test("joinable pairs respect the threshold") {
    // users.uid {u1,u2,u3} vs orders.uid {u1,u2}: containment max(2/3, 2/2) = 1.0
    assert(index.containmentOf(ColumnRef("users", "uid"), ColumnRef("orders", "uid")) == 1.0)
    // users.city vs cities.city: overlap 2 of 3 → containment 2/3 ≥ 0.6
    assert(index.containmentOf(ColumnRef("users", "city"), ColumnRef("cities", "city")) > 0.6)
  }
  test("below-threshold overlaps are not joinable") {
    val strict = DiscoveryIndexBuilder.build(spark, repo, threshold = 0.8)
    assert(strict.containmentOf(ColumnRef("users", "city"), ColumnRef("cities", "city")) == 0.0)
    assert(strict.containmentOf(ColumnRef("users", "uid"), ColumnRef("orders", "uid")) == 1.0)
  }
  test("searchKeyword over the built index") {
    assert(index.searchKeyword("paris").toSet ==
      Set(ColumnRef("users", "city"), ColumnRef("cities", "city")))
    assert(index.searchKeyword("PARIS").nonEmpty, "case-insensitive")
    assert(index.searchKeyword("absent").isEmpty)
  }
  test("join edges are derived per table pair") {
    assert(index.joinEdges("users", "orders").size == 1)
    assert(index.joinEdges("orders", "users").size == 1, "order-insensitive lookup")
    assert(index.joinEdges("users", "unrelated").isEmpty)
  }
  test("tableNeighbors lists adjacent tables") {
    assert(index.tableNeighbors("users").toSet == Set("orders", "cities"))
    assert(index.tableNeighbors("unrelated").isEmpty)
  }
  test("generateJoinGraphs finds the 2-hop orders—users—cities path") {
    val gs = index.generateJoinGraphs("orders", "cities")
    assert(gs.size == 1 && gs.head.size == 2)
  }
  test("the index build is deterministic") {
    val again = DiscoveryIndexBuilder.build(spark, repo, threshold = 0.6)
    assert(again.columnValues == index.columnValues)
    assert(again.containment == index.containment)
  }

  // ---- containment on a hand-computed repo --------------------------------
  private lazy val small = TableRepo("prof-test", Map(
    "t1" -> Table(Seq("a", "b"), Seq(
      Seq("x", "1"), Seq("y", "2"), Seq("x", "3"))),
    "t2" -> Table(Seq("a2", "c"), Seq(
      Seq("x", "1"), Seq("y", "9"), Seq("z", "9"))),
    "t3" -> Table(Seq("d"), Seq(Seq("q"))),
  ), Vector.empty)
  private lazy val smallAll = DiscoveryIndexBuilder.build(spark, small, threshold = 0.0)
  private val t1a = ColumnRef("t1", "a")
  private val t1b = ColumnRef("t1", "b")
  private val t2a2 = ColumnRef("t2", "a2")
  private val t2c = ColumnRef("t2", "c")

  test("containment is exact max-directional Jaccard containment") {
    // t1.a {x,y} ⊂ t2.a2 {x,y,z}: max(2/2, 2/3) = 1.0
    assert(smallAll.containment((t1a, t2a2)) == 1.0)
    // t1.b {1,2,3} vs t2.c {1,9}: max(1/3, 1/2) = 0.5
    assert(smallAll.containment((t1b, t2c)) == 0.5)
  }
  test("the threshold filters the containment map") {
    assert(DiscoveryIndexBuilder.build(spark, small, threshold = 0.8).containment.keySet ==
      Set((t1a, t2a2)))
  }
  test("same-table column pairs are excluded") {
    val same = TableRepo("same", Map(
      "t" -> Table(Seq("p", "q"), Seq(Seq("v", "v")))), Vector.empty)
    assert(DiscoveryIndexBuilder.build(spark, same, threshold = 0.0).containment.isEmpty)
  }
  test("one containment entry per unordered pair, in canonical order") {
    val keys = smallAll.containment.keys.toVector
    assert(keys.forall { case (a, b) => a.toString < b.toString })
    assert(keys.map { case (a, b) => Set(a, b) }.distinct.size == keys.size)
  }
  test("containment is case-sensitive while searchKeyword is not") {
    val cased = TableRepo("case", Map(
      "a" -> Table(Seq("city"), Seq(Seq("Paris"))),
      "b" -> Table(Seq("city"), Seq(Seq("paris")))), Vector.empty)
    val idx = DiscoveryIndexBuilder.build(spark, cased, threshold = 0.0)
    assert(idx.containment.isEmpty)
    assert(idx.searchKeyword("paris").toSet == Set(ColumnRef("a", "city"), ColumnRef("b", "city")))
  }

  // ---- the real corpora against the brute-force oracle --------------------
  private lazy val chembl = ChemblLite(spark)

  test("chembl-lite and wdc-lite equal the oracle over the Fig. 8 threshold sweep") {
    val expectedPairs = Map("chembl-lite" -> Vector(43, 42, 26), "wdc-lite" -> Vector(718, 373, 240))
    for (corpus <- Vector(chembl, WdcLite(spark))) {
      val built = Vector(0.5, 0.8, 1.0).map(t => DiscoveryIndexBuilder.build(spark, corpus, t))
      for (idx <- built)
        assert(idx.containment == oracle(idx.columnValues, idx.threshold), s"${corpus.name} @ ${idx.threshold}")
      assert(built.map(_.containment.size) == expectedPairs(corpus.name))
    }
  }
  test("columnValues equal Spark's per-column distinct value sets on chembl-lite") {
    val values = chembl.tables.toVector.flatMap { case (t, table) =>
      val sets = dataFrame(table).select(table.columns.map(c => collect_set(col(c))): _*).head()
      table.columns.zipWithIndex.map { case (c, i) => ColumnRef(t, c) -> sets.getSeq[String](i).toSet }
    }.toMap
    assert(DiscoveryIndexBuilder.build(spark, chembl).columnValues == values)
  }
  test("searchKeyword equals the flatten-groupBy-sort definition on every value of chembl-lite and wdc-lite") {
    for (corpus <- Vector(chembl, WdcLite(spark))) {
      val idx = DiscoveryIndexBuilder.build(spark, corpus)
      // The index's earlier definition: every (lower-cased value, column)
      // pair, grouped by value, each group sorted by (table, column).
      val expected = idx.columnValues.toVector
        .flatMap { case (c, vs) => vs.map(v => (v.toLowerCase, c)) }
        .groupBy(_._1)
        .map { case (v, cs) => v -> cs.map(_._2).sortBy(c => (c.table, c.column)) }
      val probes = idx.columnValues.values.flatten.toVector.distinct
      assert(probes.size > 1000, s"${corpus.name}: ${probes.size} values")
      for (v <- probes; p <- Vector(v, v.toUpperCase))
        assert(idx.searchKeyword(p) == expected.getOrElse(p.toLowerCase, Vector.empty), s"${corpus.name}: $p")
    }
  }

  // ---- randomized invariants ----------------------------------------------
  test("randomized: builder equals the oracle, containmentOf is symmetric, edges shrink with the threshold") {
    val tableGen = for {
      nCols <- Gen.choose(1, 3)
      rows <- Gen.choose(0, 5).flatMap(n =>
        Gen.listOfN(n, Gen.listOfN(nCols, Gen.oneOf("a", "b", "c", "d", "A"))))
    } yield (nCols, rows)
    val repoGen = Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, tableGen))
    val thresholds = Vector(0.0, 0.25, 0.5, 0.8, 1.0)
    val prop = Prop.forAll(repoGen) { tables =>
      val named = tables.zipWithIndex.map { case ((nCols, rows), i) =>
        (s"t$i", (0 until nCols).map(j => s"c$j"), rows)
      }
      val r = TableRepo("rand", named.map { case (t, cs, rows) =>
        t -> Table(cs, rows) }.toMap, Vector.empty)
      val values = named.flatMap { case (t, cs, rows) =>
        cs.zipWithIndex.map { case (c, j) => ColumnRef(t, c) -> rows.map(_(j)).toSet }
      }.toMap
      val built = thresholds.map(t => DiscoveryIndexBuilder.build(spark, r, t))
      val cols = r.columnRefs
      built.forall(i => i.containment == oracle(values, i.threshold)) &&
        built.forall(i => cols.forall(a => cols.forall(b => i.containmentOf(a, b) == i.containmentOf(b, a)))) &&
        built.zip(built.tail).forall { case (lo, hi) => hi.containment.keySet.subsetOf(lo.containment.keySet) }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(40), prop)
    assert(res.passed, res.status.toString)
  }
}

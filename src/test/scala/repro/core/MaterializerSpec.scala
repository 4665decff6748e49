package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import java.util.concurrent.{ExecutionException, FutureTask, TimeUnit, TimeoutException}
import scala.util.Random

import repro.{Oracle, SparkSpec}
import repro.data.{ChemblLite, QueryGen, Table, TableRepo, WdcLite}
import repro.discovery.DiscoveryIndexBuilder

/** Tests the driver-side MATERIALIZER against the DuckDB oracle: hand-built
  * join graphs, every top-100 spec of the Table IV zero-noise workload, and
  * random specs over random small repos are checked for result-equality with
  * the equivalent SQL.
  */
class MaterializerSpec extends SparkSpec {
  private def c(t: String, col: String) = ColumnRef(t, col)

  private lazy val repo = TableRepo("mat-test", Map(
    "orders" -> Table(Seq("oid", "cid", "status"), Seq(
      Seq("o1", "c1", "open"), Seq("o2", "c1", "closed"), Seq("o3", "c2", "open"),
      Seq("o4", "c9", "open"))),
    "customers" -> Table(Seq("cid", "name"), Seq(
      Seq("c1", "alice"), Seq("c2", "bob"), Seq("c3", "carol"))),
    "cities" -> Table(Seq("name", "city"), Seq(
      Seq("alice", "paris"), Seq("bob", "tokyo"))),
  ), Vector.empty)

  private val join1 = ViewSpec(Set("orders", "customers"),
    Set(JoinEdge(c("orders", "cid"), c("customers", "cid"))),
    Vector(c("customers", "name"), c("orders", "status")))

  test("two-table join matches DuckDB") {
    Oracle.assertEquivalent(
      Materializer.materialize(repo, join1, "v"),
      "SELECT DISTINCT customers.name AS name, orders.status AS status " +
        "FROM orders JOIN customers ON orders.cid = customers.cid",
      "orders" -> repo("orders"), "customers" -> repo("customers"))
  }

  test("three-table chain join matches DuckDB") {
    val spec = ViewSpec(Set("orders", "customers", "cities"),
      Set(JoinEdge(c("orders", "cid"), c("customers", "cid")),
          JoinEdge(c("customers", "name"), c("cities", "name"))),
      Vector(c("cities", "city"), c("orders", "status")))
    Oracle.assertEquivalent(
      Materializer.materialize(repo, spec, "v"),
      "SELECT DISTINCT cities.city AS city, orders.status AS status " +
        "FROM orders JOIN customers ON orders.cid = customers.cid " +
        "JOIN cities ON customers.name = cities.name",
      "orders" -> repo("orders"), "customers" -> repo("customers"), "cities" -> repo("cities"))
  }

  test("single-table projection matches DuckDB") {
    val spec = ViewSpec.singleTable(Vector(c("orders", "cid"), c("orders", "status")))
    Oracle.assertEquivalent(
      Materializer.materialize(repo, spec, "v"),
      "SELECT DISTINCT cid, status FROM orders",
      "orders" -> repo("orders"))
  }

  test("projection is distinct (set semantics)") {
    val spec = ViewSpec.singleTable(Vector(c("orders", "status")))
    assert(Materializer.materialize(repo, spec, "v").rows == Vector(Vector("closed"), Vector("open")))
  }

  test("unmatched join keys are dropped (inner join semantics)") {
    val v = Materializer.materialize(repo, join1, "v")
    assert(!v.rows.exists(_.contains("c9")), "order o4 has no matching customer")
    assert(v.rows.size == 3)
  }

  test("materialize collects canonicalized, distinct, sorted rows") {
    val v = Materializer.materialize(repo, join1, "v")
    assert(v.id == "v" && v.schema == Vector("name", "status"))
    assert(v.rows == v.rows.distinct)
    assert(v.rows == v.rows.sorted(Ordering.by((r: Vector[String]) => r.mkString(" "))))
  }

  test("duplicate projected column names get positional suffixes") {
    assert(Materializer.dedupeNames(Vector("s", "s", "t", "s")) == Vector("s", "s_2", "t", "s_3"))
    val spec = ViewSpec(Set("orders", "customers"),
      Set(JoinEdge(c("orders", "cid"), c("customers", "cid"))),
      Vector(c("orders", "cid"), c("customers", "cid")))
    val v = Materializer.materialize(repo, spec, "v")
    assert(v.schema == Vector("cid", "cid_2"))
    assert(v.rows == Vector(Vector("c1", "c1"), Vector("c2", "c2")))
  }

  test("disconnected specs are rejected") {
    val spec = ViewSpec(Set("orders", "cities"), Set.empty,
      Vector(c("orders", "oid"), c("cities", "city")))
    intercept[RuntimeException](Materializer.materialize(repo, spec, "v"))
  }

  test("materializeAll preserves ranked order and limit") {
    val single = ViewSpec.singleTable(Vector(c("orders", "oid")))
    val out = Materializer.materializeAll(repo, Seq(single, join1), limit = 1)
    assert(out.size == 1 && out.head.spec == single)
  }

  test("multi-edge connection between two tables joins on all edges") {
    // Both cid and name would have to match; build a repo where they do.
    val r2 = TableRepo("m2", Map(
      "a" -> Table(Seq("k1", "k2", "pa"), Seq(
        Seq("x", "1", "p1"), Seq("y", "2", "p2"))),
      "b" -> Table(Seq("k1", "k2", "pb"), Seq(
        Seq("x", "1", "q1"), Seq("y", "9", "q2"))),
    ), Vector.empty)
    val spec = ViewSpec(Set("a", "b"),
      Set(JoinEdge(c("a", "k1"), c("b", "k1")), JoinEdge(c("a", "k2"), c("b", "k2"))),
      Vector(c("a", "pa"), c("b", "pb")))
    Oracle.assertEquivalent(
      Materializer.materialize(r2, spec, "v"),
      "SELECT DISTINCT a.pa AS pa, b.pb AS pb FROM a JOIN b ON a.k1 = b.k1 AND a.k2 = b.k2",
      "a" -> r2("a"), "b" -> r2("b"))
  }

  // The checks `TableRepo.df` made now live in `Table`'s constructor.
  test("TableRepo.df rejects a null cell") {
    val e = intercept[IllegalArgumentException](Table(Seq("a", "b"), Seq(Seq("x", null))))
    assert(e.getMessage.contains("null cell"))
  }
  test("Table rejects a ragged row") {
    val e = intercept[IllegalArgumentException](Table(Seq("a", "b"), Seq(Seq("x", "y"), Seq("z"))))
    assert(e.getMessage.contains("ragged"))
  }
  test("the oracle keeps SQL NULL distinct from a \"∅\" cell") {
    val view = MatView.fromRows("v", ViewSpec.singleTable(Vector(c("t", "a"))), Vector("a"), Seq(Seq("∅")))
    Oracle.assertEquivalent(view, "SELECT '∅' AS a")
    intercept[IllegalArgumentException](Oracle.assertEquivalent(view, "SELECT CAST(NULL AS VARCHAR) AS a"))
  }

  // ---- the Table IV workload ----------------------------------------------
  /** Per corpus, the top-100 specs of each zero-noise Table IV query. */
  private lazy val workload: Seq[(TableRepo, Seq[(String, Vector[ViewSpec])])] = Seq(
    ChemblLite(spark) -> Seq("chembl-Q1", "chembl-Q2", "chembl-Q3", "chembl-Q4", "chembl-Q5"),
    WdcLite(spark) -> Seq("wdc-Q2", "wdc-Q3"),
  ).map { case (r, gtNames) =>
    val index = DiscoveryIndexBuilder.build(spark, r)
    val ver = new Ver(r, index)
    r -> r.groundTruths.filter(gt => gtNames.contains(gt.name)).map { gt =>
      gt.name -> ver.searchSpecs(QueryGen.generate(gt, NoiseLevel.Zero, 0, index.values).query).specs.take(100)
    }
  }

  test("every top-100 spec of each zero-noise Table IV query matches DuckDB") {
    val checked = workload.map { case (r, queries) =>
      val db = Oracle.load(r)
      try queries.map { case (name, specs) =>
        val views = Materializer.materializeAll(r, specs)
        val wrong = views.filter(v => db.view(v.spec, v.id) != v)
        assert(wrong.isEmpty, s"$name: ${wrong.size} views differ, first ${wrong.take(3).map(_.spec)}")
        views.size
      }.sum
      finally db.close()
    }
    // Table IV's Original counts at zero noise: 24+23+80+100+20 and 100+66.
    assert(checked == Seq(247, 166))
  }

  // ---- the per-spec fan-out -----------------------------------------------
  test("materializeAll equals materializing each spec in rank order on every zero-noise Table IV query") {
    val checked = for ((r, queries) <- workload; (name, specs) <- queries) yield {
      val serial = specs.zipWithIndex.map { case (s, i) => Materializer.materialize(r, s, f"v$i%04d") }
      assert(Materializer.materializeAll(r, specs) == serial, name)
      specs.size
    }
    assert(checked.sum == 413)
  }

  /** `body` on its own thread: its result or failure, or a test failure
    * after `seconds` instead of a hang.
    */
  private def within[T](seconds: Int)(body: => T): Either[Throwable, T] = {
    val task = new FutureTask[T](() => body)
    val thread = new Thread(task)
    thread.setDaemon(true)
    thread.start()
    try Right(task.get(seconds.toLong, TimeUnit.SECONDS))
    catch {
      case e: ExecutionException => Left(e.getCause)
      case _: TimeoutException => fail(s"no result after $seconds s")
    }
  }

  test("materializeAll rethrows a disconnected spec's own IllegalArgumentException") {
    val disconnected = ViewSpec(Set("orders", "cities"), Set.empty,
      Vector(c("orders", "oid"), c("cities", "city")))
    val direct = intercept[IllegalArgumentException](Materializer.materialize(repo, disconnected, "v0001"))
    val specs = Seq(ViewSpec.singleTable(Vector(c("orders", "oid"))), disconnected, join1)
    within(60)(Materializer.materializeAll(repo, specs)) match {
      case Left(e: IllegalArgumentException) => assert(e.getMessage == direct.getMessage)
      case other => fail(s"expected the IllegalArgumentException, got $other")
    }
  }

  test("Par.map surfaces a task's StackOverflowError to the caller") {
    def deep(n: Int): Int = if (n < 0) 0 else deep(n + 1) + 1
    within(60)(Par.map(1 to 8)(i => if (i == 5) deep(0) else i)) match {
      case Left(_: StackOverflowError) => succeed
      case other => fail(s"expected a StackOverflowError, got $other")
    }
  }

  // ---- randomized invariants ----------------------------------------------
  test("randomized: random connected specs over small repos equal DuckDB and ignore row order") {
    val tableGen = for {
      nCols <- Gen.choose(1, 3)
      cols <- Gen.pick(nCols, Seq("k", "a", "b"))
      rows <- Gen.choose(0, 6).flatMap(n => Gen.listOfN(n, Gen.listOfN(nCols, Gen.oneOf("0", "1", "2"))))
    } yield (cols.toVector, rows)
    def specGen(cols: Map[String, Vector[String]]): Gen[ViewSpec] = {
      def col(t: String) = Gen.oneOf(cols(t)).map(ColumnRef(t, _))
      def edge(a: String, b: String) = for (x <- col(a); y <- col(b)) yield JoinEdge(x, y)
      for {
        n <- Gen.choose(1, cols.size)
        ts <- Gen.pick(n, cols.keys.toSeq.sorted).map(_.toVector)
        tree <- Gen.sequence[Vector[JoinEdge], JoinEdge]((1 until n).map(i =>
          Gen.choose(0, i - 1).flatMap(p => edge(ts(p), ts(i)))))
        extra <- if (n < 2) Gen.const(Nil) else Gen.choose(0, 2).flatMap(k =>
          Gen.listOfN(k, Gen.pick(2, ts).flatMap(p => edge(p(0), p(1)))))
        projection <- Gen.choose(1, 3).flatMap(k => Gen.listOfN(k, Gen.oneOf(ts).flatMap(col)))
      } yield ViewSpec(ts.toSet, (tree ++ extra).toSet, projection.toVector)
    }
    val caseGen = for {
      n <- Gen.choose(2, 4)
      tables <- Gen.listOfN(n, tableGen).map(_.zipWithIndex.map { case (t, i) => s"t$i" -> t }.toMap)
      spec <- specGen(tables.map { case (t, (cols, _)) => t -> cols })
      seed <- Gen.long
    } yield (tables, spec, seed)
    val prop = Prop.forAllNoShrink(caseGen) { case (tables, spec, seed) =>
      val rnd = new Random(seed)
      def repoOf(order: List[List[String]] => List[List[String]]) = TableRepo("rand",
        tables.map { case (t, (cols, rows)) => t -> Table(cols, order(rows)) }, Vector.empty)
      val v = Materializer.materialize(repoOf(identity), spec, "v")
      val expected = {
        val db = Oracle.load(repoOf(identity))
        try db.view(spec, "v") finally db.close()
      }
      (v == expected) :| s"DuckDB ${expected.rows} vs ${v.rows} for $spec" &&
        (Materializer.materialize(repoOf(rnd.shuffle(_)), spec, "v") == v) :| s"row order changed $spec"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status.toString)
  }
}

package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import scala.util.Random

/** Unit tests for VIEW-DISTILLATION (Algorithm 3) on handcrafted views
  * covering each 4C definition, plus randomized invariants.
  */
class FourCSpec extends AnyFunSuite {

  private def spec2(c1: String, c2: String) =
    ViewSpec.singleTable(Vector(ColumnRef("t", c1), ColumnRef("t", c2)))

  /** Two-column view builder (schema kept in sorted order by fromRows). */
  private def mv(id: String, cols: (String, String), rows: (String, String)*): MatView =
    MatView.fromRows(id, spec2(cols._1, cols._2), Vector(cols._1, cols._2),
      rows.map(r => Seq(r._1, r._2)))

  private val kv = ("k", "v")

  // ---- MatView basics ------------------------------------------------------
  test("MatView deduplicates rows") {
    assert(mv("a", kv, "1" -> "x", "1" -> "x").rows.size == 1)
  }
  test("MatView canonicalizes schema order") {
    val v = MatView.fromRows("a", spec2("b", "a"), Vector("b", "a"), Seq(Seq("1", "2")))
    assert(v.schema == Vector("a", "b") && v.rows == Vector(Vector("2", "1")))
  }
  test("candidateKeys: both unique columns are keys") {
    assert(mv("a", kv, "1" -> "x", "2" -> "y").candidateKeys == Vector("k", "v"))
  }
  test("candidateKeys: repeated values disqualify a column") {
    assert(mv("a", kv, "1" -> "x", "2" -> "x").candidateKeys == Vector("k"))
  }
  test("candidateKeys: view may have no key") {
    assert(mv("a", kv, "1" -> "x", "1" -> "y", "2" -> "y", "2" -> "x").candidateKeys.isEmpty)
  }
  test("columnIndex resolves and rejects") {
    val v = mv("a", kv, "1" -> "x")
    assert(v.columnIndex("k") == 0 && v.columnIndex("v") == 1)
    intercept[IllegalArgumentException](v.columnIndex("nope"))
  }

  // ---- schema blocks -------------------------------------------------------
  test("schemaBlocks groups by canonical schema") {
    val blocks = ViewDistillation.schemaBlocks(Seq(
      mv("a", kv, "1" -> "x"), mv("b", ("v", "k"), "y" -> "2"), mv("c", ("x", "y"), "p" -> "q")))
    assert(blocks.size == 2)
    assert(blocks.map(_.map(_.id).toSet).contains(Set("a", "b")))
  }

  // ---- C1 compatible -------------------------------------------------------
  test("compatible views collapse to one representative (Definition 5)") {
    val (kept, edges) = ViewDistillation.dedupCompatible(Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"), mv("b", kv, "2" -> "y", "1" -> "x")))
    assert(kept.map(_.id) == Vector("a"))
    assert(edges == Vector(ViewEdge("a", "b", Rel.Compatible)))
  }
  test("non-compatible views both survive C1") {
    val (kept, edges) = ViewDistillation.dedupCompatible(Vector(
      mv("a", kv, "1" -> "x"), mv("b", kv, "2" -> "y")))
    assert(kept.size == 2 && edges.isEmpty)
  }
  test("compatibility is transitive: one representative for three") {
    val vs = Vector(mv("a", kv, "1" -> "x"), mv("b", kv, "1" -> "x"), mv("c", kv, "1" -> "x"))
    val (kept, edges) = ViewDistillation.dedupCompatible(vs)
    assert(kept.size == 1 && edges.size == 2)
  }

  // ---- C2 contained --------------------------------------------------------
  test("contained views: largest kept (Definition 6)") {
    val (kept, edges) = ViewDistillation.keepLargestContained(Vector(
      mv("small", kv, "1" -> "x"), mv("big", kv, "1" -> "x", "2" -> "y")))
    assert(kept.map(_.id) == Vector("big"))
    assert(edges == Vector(ViewEdge("big", "small", Rel.Contained)))
  }
  test("containment chain collapses to the top") {
    val (kept, edges) = ViewDistillation.keepLargestContained(Vector(
      mv("v1", kv, "1" -> "x"),
      mv("v2", kv, "1" -> "x", "2" -> "y"),
      mv("v3", kv, "1" -> "x", "2" -> "y", "3" -> "z")))
    assert(kept.map(_.id) == Vector("v3") && edges.size == 2)
  }
  test("overlapping but not contained views both survive C2") {
    val (kept, _) = ViewDistillation.keepLargestContained(Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"), mv("b", kv, "2" -> "y", "3" -> "z")))
    assert(kept.size == 2)
  }

  // ---- contradictions ------------------------------------------------------
  test("contradicts: same key value, different rows (Definition 9)") {
    val a = mv("a", kv, "1" -> "x"); val b = mv("b", kv, "1" -> "y")
    assert(ViewDistillation.contradicts(a, b, "k"))
  }
  test("no contradiction when shared key values agree") {
    val a = mv("a", kv, "1" -> "x", "2" -> "y"); val b = mv("b", kv, "1" -> "x", "3" -> "z")
    assert(!ViewDistillation.contradicts(a, b, "k"))
  }
  test("no contradiction without shared key values") {
    val a = mv("a", kv, "1" -> "x"); val b = mv("b", kv, "2" -> "y")
    assert(!ViewDistillation.contradicts(a, b, "k"))
  }
  test("contradictionsFor builds sides from the inverted index") {
    val block = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("b", kv, "1" -> "x", "3" -> "z"),
      mv("c", kv, "1" -> "w"))
    val cs = ViewDistillation.contradictionsFor(block, "k")
    assert(cs.size == 1)
    val c = cs.head
    assert(c.keyValue == "1" && c.sides.map(_.toSet).toSet == Set(Set("a", "b"), Set("c")))
    assert(c.discrimination == 2)
  }
  test("views without the candidate key do not participate") {
    val block = Vector(
      mv("a", kv, "1" -> "x"),
      mv("nokey", kv, "1" -> "y", "1" -> "z", "2" -> "z", "2" -> "y"))
    assert(ViewDistillation.contradictionsFor(block, "k").isEmpty)
  }
  test("restrictTo drops resolved contradictions") {
    val c = Contradiction("k", "1", Vector(Set("a"), Set("b")))
    assert(c.restrictTo(Set("a", "b")).nonEmpty)
    assert(c.restrictTo(Set("a")).isEmpty)
  }

  // ---- complementary / C3 --------------------------------------------------
  test("complementary pair: same key, overlap, no containment (Definition 8)") {
    val block = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"), mv("b", kv, "2" -> "y", "3" -> "z"))
    val pairs = ViewDistillation.complementaryPairs(block, "k")
    assert(pairs.map { case (x, y) => (x.id, y.id) } == Vector(("a", "b")))
  }
  test("disjoint views are not complementary (no overlap)") {
    val block = Vector(mv("a", kv, "1" -> "x"), mv("b", kv, "2" -> "y"))
    assert(ViewDistillation.complementaryPairs(block, "k").isEmpty)
  }
  test("contradictory overrides complementary for the same key") {
    val block = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("b", kv, "2" -> "y", "1" -> "z")) // overlap on (2,y), contradiction on k=1
    assert(ViewDistillation.complementaryPairs(block, "k").isEmpty)
  }
  test("countAfterUnion merges connected components") {
    val block = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("b", kv, "2" -> "y", "3" -> "z"),
      mv("c", kv, "9" -> "q"))
    assert(ViewDistillation.countAfterUnion(block, "k") == 2)
  }
  test("c3Counts: best and worst key differ when one key contradicts") {
    // Under k: shared row (2,y), no contradiction → union to 1.
    // Under v: value x maps to (1,x) in a and (3,x) in b → contradiction → 2.
    val block = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("b", kv, "2" -> "y", "3" -> "x"))
    val (worst, best) = ViewDistillation.c3Counts(block)
    assert(worst == 2 && best == 1)
  }
  test("c3Counts: no shared candidate key means no reduction") {
    val block = Vector(
      mv("a", kv, "1" -> "x", "1" -> "y", "2" -> "y", "2" -> "x"),
      mv("b", kv, "3" -> "z", "3" -> "w", "4" -> "w", "4" -> "z"))
    assert(ViewDistillation.c3Counts(block) == (2, 2))
  }

  // ---- distill integration -------------------------------------------------
  test("distill produces monotone counts and the 4C edge set") {
    val views = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("a2", kv, "2" -> "y", "1" -> "x"),                 // compatible with a
      mv("sub", kv, "1" -> "x"),                            // contained in a
      mv("c", kv, "2" -> "y", "3" -> "z"),                  // complementary with a under k
      mv("x", kv, "1" -> "w"),                              // contradicts a on k=1
      mv("other", ("p", "q"), "1" -> "1"))                  // different schema block
    val r = ViewDistillation.distill(views)
    assert(r.original == 6 && r.afterCompatible == 5 && r.afterContained == 4)
    assert(r.c3Best <= r.c3Worst && r.c3Worst <= r.afterContained)
    assert(r.edges.exists(e => e.rel == Rel.Compatible && e.a == "a" && e.b == "a2"))
    assert(r.edges.exists(e => e.rel == Rel.Contained && e.b == "sub"))
    assert(r.edges.exists(e => e.rel == Rel.Complementary && e.key.contains("k")))
    assert(r.edges.exists(e => e.rel == Rel.Contradictory && e.key.contains("k")))
    assert(r.contradictions.nonEmpty)
  }
  test("distill on an empty collection") {
    val r = ViewDistillation.distill(Vector.empty)
    assert(r.original == 0 && r.afterCompatible == 0 && r.c3Best == 0)
  }
  test("distilled views are exactly those surviving C1+C2") {
    val views = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"), mv("b", kv, "1" -> "x"), mv("c", kv, "1" -> "x", "2" -> "y"))
    val r = ViewDistillation.distill(views)
    assert(r.distilled.map(_.id) == Vector("a"))
  }

  // ---- Fig. 2 pruning machinery -------------------------------------------
  test("contradiction pruning: best case prunes at least as much as worst") {
    val views = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("b", kv, "1" -> "x", "3" -> "z"),
      mv("c", kv, "1" -> "w", "4" -> "q"),
      mv("d", kv, "1" -> "w", "5" -> "r"))
    val r = ViewDistillation.distill(views)
    val best = ViewDistillation.contradictionPruningSteps(r, 10, bestCase = true)
    val worst = ViewDistillation.contradictionPruningSteps(r, 10, bestCase = false)
    assert(best.nonEmpty && worst.nonEmpty)
    assert(best.head <= worst.head)
    assert(best == best.sorted(Ordering[Int].reverse), "counts decrease monotonically")
  }

  // ---- randomized invariants ----------------------------------------------
  test("randomized: distill counts are monotone for arbitrary small views") {
    val rowGen = Gen.listOfN(4, Gen.zip(Gen.choose(1, 4).map(_.toString), Gen.oneOf("x", "y", "z")))
    val viewsGen = Gen.listOfN(6, rowGen).map(_.zipWithIndex.map { case (rows, i) =>
      mv(s"g$i", kv, rows: _*)
    })
    val prop = Prop.forAll(viewsGen) { vs =>
      val nonEmpty = vs.filter(_.rows.nonEmpty)
      val r = ViewDistillation.distill(nonEmpty.toVector)
      r.afterCompatible <= r.original &&
        r.afterContained <= r.afterCompatible &&
        r.c3Worst <= r.afterContained && r.c3Best <= r.c3Worst &&
        r.edges.forall(e => e.a != e.b)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), prop)
    assert(res.passed, res.status.toString)
  }
  /** Random view sets over 1–6 schema blocks and a small value domain, so
    * compatible, contained, complementary and contradictory pairs all occur.
    */
  private val viewSetGen: Gen[Vector[MatView]] = {
    val schemas = Vector(kv, ("k", "w"), ("a", "k"), ("v", "w"), ("a", "b"), ("p", "q"))
    def viewGen(blocks: Int) = for {
      cols <- Gen.oneOf(schemas.take(blocks))
      rows <- Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, Gen.zip(Gen.oneOf("1", "2", "3"), Gen.oneOf("x", "y", "z"))))
    } yield (cols, rows)
    for {
      blocks <- Gen.choose(1, schemas.size)
      gen <- Gen.choose(0, 12).flatMap(n => Gen.listOfN(n, viewGen(blocks)))
    } yield gen.zipWithIndex.map { case ((cols, rows), i) => mv(s"g$i", cols, rows: _*) }.toVector
  }

  test("randomized: 4C counts are monotone, the report ignores view order, counts ignore id renaming") {
    val caseGen = Gen.zip(viewSetGen, Gen.long)
    def counts(r: DistillReport) = Vector(r.original, r.afterCompatible, r.afterContained, r.c3Worst, r.c3Best)
    val prop = Prop.forAllNoShrink(caseGen) { case (views, seed) =>
      val rnd = new Random(seed)
      val report = ViewDistillation.distill(views)
      val expected = counts(report)
      val renamed = views.zip(rnd.shuffle(views.indices.toVector)).map { case (v, j) => v.copy(id = s"r$j") }
      expected.zip(expected.tail).forall { case (a, b) => a >= b } :| s"not monotone: $expected" &&
        (ViewDistillation.distill(rnd.shuffle(views)) == report) :| "view order changed the report" &&
        (counts(ViewDistillation.distill(rnd.shuffle(renamed))) == expected) :| "renaming ids changed the counts"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }
  test("randomized: distill equals its schema blocks' reports combined in block order") {
    val prop = Prop.forAllNoShrink(viewSetGen) { views =>
      val parts = ViewDistillation.schemaBlocks(views).map(ViewDistillation.distill)
      val combined = DistillReport(parts.map(_.original).sum, parts.map(_.afterCompatible).sum,
        parts.map(_.afterContained).sum, parts.map(_.c3Worst).sum, parts.map(_.c3Best).sum,
        parts.flatMap(_.edges).distinct, parts.flatMap(_.distilled), parts.flatMap(_.contradictions).distinct)
      (ViewDistillation.distill(views) == combined) :| s"${parts.size} blocks"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }
}

package repro.perfbench

import java.security.MessageDigest

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.{ChemblLite, GroundTruth, NoisyQuery, QueryGen, TableRepo, WdcLite}
import repro.discovery.{DiscoveryIndex, DiscoveryIndexBuilder}
import repro.exp.{TableIII, TableV}

/** What one timed operation returned: the values its output check
  * compares (with the values recorded at seed 97 when `recorded`), the
  * failures it found, and (traced runs only) its funnel.
  */
final case class OpOutcome(key: String, observed: Vector[String], failures: Vector[String],
                           funnel: Map[String, Double] = Map.empty, recorded: Boolean = true)

/** One corpus with its discovery index and the `Ver` facade over both. */
final case class Corpus(repo: TableRepo, index: DiscoveryIndex) {
  val ver = new Ver(repo, index)
  def name: String = repo.name
}

/** The two corpora and their discovery indexes at the default containment
  * threshold, with the index's lazy serving structures forced so no first
  * query pays for them.
  */
object Corpora {
  val Threshold = 0.8

  def generate(spark: SparkSession, tr: Tracer): Vector[TableRepo] =
    tr.span("data.generate", "data")(Vector(ChemblLite(spark), WdcLite(spark)))

  def index(spark: SparkSession, repos: Vector[TableRepo], tr: Tracer): Vector[Corpus] = {
    val built = repos.map(r => Corpus(r, tr.span(s"discovery.build.${r.name}", "discovery")(
      DiscoveryIndexBuilder.build(spark, r, Threshold))))
    tr.span("discovery.serve_init", "discovery") {
      built.foreach { c => c.index.searchKeyword(""); c.index.neighbors; c.index.edgesBetween; c.index.tableNeighbors }
    }
    built
  }

  /** Column count, joinable pairs and a digest of the containment map. */
  def fingerprint(c: Corpus): Vector[String] = {
    val lines = c.index.containment.toVector
      .map { case ((a, b), s) => s"$a\t$b\t$s" }.sorted.mkString("\n")
    val digest = MessageDigest.getInstance("SHA-256").digest(lines.getBytes("UTF-8"))
      .map(b => f"${b & 0xff}%02x").mkString
    Vector(c.index.columnValues.size.toString, c.index.containment.size.toString, digest)
  }
}

/** A closed-loop workload: `op(k)` runs the k-th operation of an endless
  * sequence that cycles through `passSize` distinct operations.
  */
trait Workload {
  def passSize: Int
  def op(k: Int, tr: Tracer): OpOutcome
  /** How many untimed ops set-up runs before timing starts. */
  def warmUpOps: Int
}

object Workload {
  def mismatch(key: String, got: Vector[String], want: Map[String, Vector[String]]): Option[String] =
    Option.when(!want.get(key).contains(got))(
      s"$key: got ${got.mkString(" ")}, recorded ${want.get(key).fold("nothing")(_.mkString(" "))}")

  def funnelOf(q: ExampleQuery, strategy: ColumnStrategy, index: DiscoveryIndex): Map[String, Double] = {
    val perAttr = q.columns.map { ex =>
      (ColumnSelection.candidateColumns(ex, index).size,
        ColumnSelection.clusters(ex, index).size, strategy.select(ex, index).size)
    }
    Map(
      "candidate_columns" -> perAttr.map(_._1).sum.toDouble,
      "clusters" -> perAttr.map(_._2).sum.toDouble,
      "selected_columns" -> perAttr.map(_._3).sum.toDouble,
      "combos" -> perAttr.map(_._3.toDouble).product,
    )
  }

  /** `Ver.searchSpecs` as the facade runs it. Traced runs also time
    * `ColumnStrategy.select` on the same inputs (the selection share of the
    * facade's time) and collect the selection funnel; both are extra work
    * recorded under their own spans.
    */
  def search(c: Corpus, q: ExampleQuery, strategy: ColumnStrategy, tr: Tracer): (SearchResult, Map[String, Double]) = {
    val res = tr.span(s"ver.searchSpecs.${strategy.name}", "search")(c.ver.searchSpecs(q, strategy))
    if (!tr.enabled) (res, Map.empty)
    else {
      tr.span(s"select.${strategy.name}", "select")(q.columns.foreach(ex => strategy.select(ex, c.index)))
      val f = tr.span("funnel", "trace")(funnelOf(q, strategy, c.index))
      (res, f ++ Map(
        "join_graphs" -> res.joinGraphs.toDouble,
        "joinable_groups" -> res.joinableGroups.toDouble,
        "specs" -> res.views.toDouble))
    }
  }
}

/** `qbe`: the Table IV query set (chembl-lite Q1-Q5, wdc-lite Q2-Q3, each at
  * Zero/Med/High noise, replicate 0) through the whole interactive path:
  * COLUMN-SELECTION search, materialization of the top 100 specs, 4C
  * distillation, initial scores and one simulated presentation session.
  * The pass runs noise levels outermost and ground truths innermost,
  * alternating the two corpora (chembl-Q1, wdc-Q2, chembl-Q3, wdc-Q3,
  * chembl-Q4, chembl-Q2, chembl-Q5), so a prefix of it mixes ground truths,
  * corpora and view shapes (few views, many small WDC views, ChEMBL's
  * row-heavy views) instead of repeating one query's specs. The warm-up
  * runs the last three (chembl-Q5, chembl-Q2 and chembl-Q4 at High noise),
  * whose specs the timed prefix does not share.
  */
final class QbeWorkload(corpora: Vector[Corpus], seed: Long, setup: Tracer) extends Workload {
  val MaterializeCap = 100
  private val gtNames = Vector("chembl-Q1", "wdc-Q2", "chembl-Q3", "wdc-Q3", "chembl-Q4", "chembl-Q2", "chembl-Q5")
  /** Table IV order, which fixes each query's persona. */
  private val tableIvOrder = Vector("chembl-Q1", "chembl-Q2", "chembl-Q3", "chembl-Q4", "chembl-Q5", "wdc-Q2", "wdc-Q3")

  /** Each query with its corpus and its index in Table IV order. */
  private val queries: Vector[(Corpus, NoisyQuery, Int)] = for {
    (level, l) <- NoiseLevel.all.zipWithIndex
    name <- gtNames
    c = corpora.find(_.repo.groundTruths.exists(_.name == name)).get
    gt = c.repo.groundTruths.find(_.name == name).get
  } yield (c, QueryGen.generate(gt, level, 0, c.index.values, seed), tableIvOrder.indexOf(name) * NoiseLevel.all.size + l)

  /** Each ground truth's view, materialized once: the session's target. */
  private val targets: Map[String, MatView] = setup.span("materialize.targets", "setup") {
    queries.map(_._2.gt).distinct.map { gt =>
      val c = corpora.find(_.repo.groundTruths.contains(gt)).get
      gt.name -> Materializer.materialize(c.repo, gt.spec, "target")
    }.toMap
  }
  private val personas = TableIII.personas

  def passSize: Int = queries.size
  def warmUpOps: Int = 3

  def op(k: Int, tr: Tracer): OpOutcome = {
    val (c, nq, i) = queries(k % queries.size)
    val (res, funnel) = Workload.search(c, nq.query, ColumnStrategy.ColumnSelection(), tr)
    val views = tr.span("materialize", "materialize")(c.ver.materialize(res, MaterializeCap))
    val report = tr.span("distill", "distill")(ViewDistillation.distill(views))
    val scores = tr.span("present.scores", "present")(
      views.map(v => v.id -> FastTopK.overlapScore(v.spec, c.index, nq.query).toDouble).toMap)
    val session = tr.span("present.run", "present")(
      new Presenter(report.distilled, report, scores).run(personas(i % personas.size), targets(nq.gt.name)))

    val chain = Vector(report.original, report.afterCompatible, report.afterContained, report.c3Worst, report.c3Best)
    val failures = Vector(
      Option.when(chain.sliding(2).exists(p => p(0) < p(1)))(s"non-monotone distillation ${chain.mkString(">")}"),
      Option.when(views.size > MaterializeCap)(s"${views.size} views over the cap"),
      Option.when(report.original != views.size)(s"distilled ${report.original} of ${views.size} views"),
    ).flatten
    val extra =
      if (!tr.enabled) Map.empty[String, Double]
      else Map(
        "views" -> views.size.toDouble, "rows" -> views.map(_.rows.size).sum.toDouble,
        "original" -> report.original.toDouble, "c1" -> report.afterCompatible.toDouble,
        "c2" -> report.afterContained.toDouble, "c3_worst" -> report.c3Worst.toDouble,
        "c3_best" -> report.c3Best.toDouble, "edges" -> report.edges.size.toDouble,
        "contradictions" -> report.contradictions.size.toDouble,
        "kept" -> report.distilled.size.toDouble,
        "interactions" -> session.interactions.toDouble, "found" -> (if (session.found) 1.0 else 0.0))
    OpOutcome(nq.name, chain.map(_.toString) ++ Vector(session.found.toString, session.interactions.toString),
      failures, funnel ++ extra)
  }
}

/** `search`: the Table V sweep — SELECT-ALL, SELECT-BEST and
  * COLUMN-SELECTION × three noise levels × every ground truth of
  * chembl-lite and wdc-lite × 5 replicates — through `Ver.searchSpecs` only,
  * with queries generated from the seed (at 97, the sweep of EXPERIMENTS.md
  * Table V). The order interleaves replicates outermost and strategies
  * innermost, so any prefix of a pass holds the same mix.
  */
final class SearchWorkload(corpora: Vector[Corpus], seed: Long) extends Workload {
  private val gts: Vector[(Corpus, GroundTruth)] = {
    val per = corpora.map(c => c.repo.groundTruths.map(gt => (c, gt)))
    (0 until per.map(_.size).max).flatMap(i => per.flatMap(_.lift(i))).toVector
  }
  private val sweep: Vector[(Corpus, NoisyQuery, ColumnStrategy)] = for {
    r <- (0 until TableV.Replicates).toVector
    (c, gt) <- gts
    level <- NoiseLevel.all
    nq = QueryGen.generate(gt, level, r, c.index.values, seed)
    strategy <- TableV.Strategies
  } yield (c, nq, strategy)

  /** Spec count per query and strategy, for the SA ≥ CS check. */
  private val specCounts = scala.collection.mutable.Map.empty[(String, String), Int]

  def passSize: Int = sweep.size
  /** The last third of a pass. */
  def warmUpOps: Int = 150

  def op(k: Int, tr: Tracer): OpOutcome = {
    val (c, nq, strategy) = sweep(k % passSize)
    val (res, funnel) = Workload.search(c, nq.query, strategy, tr)
    val hit = Ver.hit(res, nq.gt)
    specCounts((nq.name, strategy.name)) = res.views
    val sa = specCounts.get((nq.name, "SA")); val cs = specCounts.get((nq.name, "CS"))
    val failures = Vector(
      Option.when(nq.level == NoiseLevel.Zero && !hit)(s"${strategy.name} misses the ground truth at zero noise"),
      Option.when(sa.zip(cs).exists { case (a, b) => a < b })(s"SELECT-ALL ${sa.get} < COLUMN-SELECTION ${cs.get} specs"),
    ).flatten
    OpOutcome(s"${nq.name}/${strategy.name}", Vector(hit.toString, res.views.toString), failures, funnel)
  }
}

/** `index`: the offline build — `DiscoveryIndexBuilder.build` at threshold
  * 0.8 for chembl-lite then wdc-lite, then forcing both indexes' lazy
  * serving structures, so work moved between build and first query stays in
  * one op. Each op must reproduce the recorded column counts, joinable pairs
  * and containment digests, at every seed (the corpora do not depend on it).
  */
final class IndexWorkload(spark: SparkSession, repos: Vector[TableRepo],
                          recorded: Map[String, Vector[String]]) extends Workload {
  /** An offline build runs once in a fresh JVM, so its cold first run is
    * what a user waits for; warming up would time a case nobody runs.
    */
  def warmUpOps: Int = 0
  def passSize: Int = 1

  def op(k: Int, tr: Tracer): OpOutcome = {
    val corpora = Corpora.index(spark, repos, tr)
    val prints = corpora.map(c => c.name -> Corpora.fingerprint(c))
    val funnel =
      if (!tr.enabled) Map.empty[String, Double]
      else Map(
        "joinable_pairs" -> corpora.map(_.index.containment.size).sum.toDouble,
        "distinct_values" -> corpora.map(_.index.columnValues.values.map(_.size).sum).sum.toDouble)
    OpOutcome("index", prints.flatMap { case (n, f) => n +: f },
      prints.flatMap { case (n, f) => Workload.mismatch(n, f, recorded) }, funnel, recorded = false)
  }
}

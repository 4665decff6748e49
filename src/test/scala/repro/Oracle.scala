package repro

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.{DataFrame, Row}

import repro.core.{ColumnRef, MatView, Materializer, ViewSpec}
import repro.data.TableRepo

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  *
  * ``load(repo)`` loads a repo's tables into one DuckDB database once, for
  * many queries (``query``, ``view``); close it when done.
  */
object Oracle {

  /** One in-process DuckDB database holding all-string tables. */
  final class Db private[Oracle] (conn: Connection) extends AutoCloseable {
    /** The output column labels and rows of `sql`. */
    def query(sql: String): (Vector[String], Vector[Vector[AnyRef]]) = {
      val rs = conn.createStatement.executeQuery(sql)
      try {
        val meta = rs.getMetaData
        val cols = (1 to meta.getColumnCount).toVector.map(meta.getColumnLabel)
        val rows = Iterator.continually(rs).takeWhile(_.next())
          .map(r => cols.indices.toVector.map(i => r.getObject(i + 1))).toVector
        (cols, rows)
      } finally rs.close()
    }

    /** DuckDB's result for a spec's [[viewSql]], as a [[MatView]]. */
    def view(spec: ViewSpec, id: String): MatView = {
      val (cols, rows) = query(viewSql(spec))
      MatView.fromRows(id, spec, cols, rows.map(_.map(_.toString)))
    }

    def close(): Unit = conn.close()
  }

  private def quote(identifier: String): String = "\"" + identifier.replace("\"", "\"\"") + "\""

  /** Load `tables` into a fresh in-memory DuckDB database. */
  def load(tables: (String, DataFrame)*): Db = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE ${quote(name)} (${cols.map(c => s"${quote(c)} VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO ${quote(name)} VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      new Db(conn)
    } catch { case e: Throwable => conn.close(); throw e }
  }

  def load(repo: TableRepo): Db = load(repo.tables.toSeq: _*)

  /** ``SELECT DISTINCT`` of a spec's projection (aliased as the
    * MATERIALIZER names its columns) over its tables, each table joined
    * ``ON`` every edge to the tables listed before it.
    */
  def viewSql(spec: ViewSpec): String = {
    val sorted = spec.tables.toVector.sorted
    val order = sorted.tail.foldLeft(Vector(sorted.head)) { (seen, _) =>
      seen :+ sorted.find(t => !seen.contains(t) &&
        spec.edges.exists(e => e.touches(t) && e.tables.exists(seen.contains)))
        .getOrElse(sys.error(s"disconnected spec $spec"))
    }
    def col(c: ColumnRef) = s"${quote(c.table)}.${quote(c.column)}"
    val select = spec.projection.zip(Materializer.dedupeNames(spec.projection.map(_.column)))
      .map { case (c, n) => s"${col(c)} AS ${quote(n)}" }
    val joins = order.indices.tail.map { i =>
      val on = spec.edges.filter(e => e.touches(order(i)) && e.tables.subsetOf(order.take(i + 1).toSet))
        .map(e => s"${col(e.left)} = ${col(e.right)}")
      s" JOIN ${quote(order(i))} ON ${on.toVector.sorted.mkString(" AND ")}"
    }
    s"SELECT DISTINCT ${select.mkString(", ")} FROM ${quote(order.head)}${joins.mkString}"
  }

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    val db = load(tables: _*)
    try {
      val (dCols, dRows) = db.query(sql)
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows.map(Row.fromSeq), dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally db.close()
  }
}

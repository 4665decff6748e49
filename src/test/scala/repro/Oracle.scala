package repro

import java.sql.{Connection, DriverManager}

import repro.core.{ColumnRef, MatView, Materializer, ViewSpec}
import repro.data.{Table, TableRepo}

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(view, sql, tables)`` runs ``sql`` on DuckDB (via
  * JDBC, in-process) over ``tables`` and asserts its rows match the view's
  * as a multiset. This catches wrong results from a rewritten join or a
  * custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column as the view names it. SQL NULL stays distinct
  * from every string, so a NULL never equals a ``"∅"`` cell.
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
  def load(tables: (String, Table)*): Db = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, table) <- tables) {
        val cols = table.columns
        conn.createStatement.execute(
          s"CREATE TABLE ${quote(name)} (${cols.map(c => s"${quote(c)} VARCHAR").mkString(", ")})"
        )
        // This is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO ${quote(name)} VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        table.rows.foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, r(i)))
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

  /** Rows with columns in sorted-name order, NULL as `None`, sorted. */
  private def canon(rows: Seq[Seq[AnyRef]], cols: Seq[String]): Seq[Seq[Option[String]]] = {
    val idx = cols.sorted.map(cols.indexOf)
    rows.map(r => idx.map(i => Option(r(i)).map(_.toString)))
      .sorted(Ordering.Implicits.seqOrdering[Seq, Option[String]])
  }

  def assertEquivalent(view: MatView, sql: String, tables: (String, Table)*): Unit = {
    val db = load(tables: _*)
    try {
      val (dCols, dRows) = db.query(sql)
      require(
        dCols.map(_.toLowerCase).toSet == view.schema.map(_.toLowerCase).toSet,
        s"column mismatch: view=${view.schema.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(view.rows, view.schema)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first view-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only: ${exp.diff(got).take(3)}"
      )
    } finally db.close()
  }
}

package repro.bench

import java.sql.{Connection, DriverManager}
import repro.core._
import scala.collection.mutable

/** Independent checks of discovered transformations, evaluated by DuckDB.
  *
  * Each transformation is translated into a DuckDB SQL expression following
  * the pinned unit semantics of DESIGN.md §5, so the recount does not go
  * through the program's own `Transformation.apply`:
  *   - `Split(c, i)` is 1-based and keeps empty pieces; NULL past the last
  *     piece (DuckDB's `string_split` keeps empty pieces and list indexing is
  *     1-based with NULL out of range; indexes below 1 are never defined).
  *   - `Substr(s, e)` is 0-based `[s, e)`; NULL unless `0 <= s < e <= length`.
  *   - Literals are quoted from the unit's own string, with `'` doubled.
  *   - Concatenation is `||`, which is NULL as soon as one unit is undefined.
  */
final class DuckCheck extends AutoCloseable {
  Class.forName("org.duckdb.DuckDBDriver")
  private val conn: Connection = DriverManager.getConnection("jdbc:duckdb:")
  private var tables = 0

  override def close(): Unit = conn.close()

  /** Creates a table with columns `schema` (as in `CREATE TABLE`), fills
    * it with `rows`, one tuple per row, and returns its name.
    */
  def load(schema: String, rows: Iterator[Product]): String = {
    tables += 1
    val name = s"t$tables"
    val st   = conn.createStatement()
    st.execute(s"CREATE TABLE $name ($schema)")
    st.close()
    val arity = schema.split(",").length
    val ps    = conn.prepareStatement(s"INSERT INTO $name VALUES (${Seq.fill(arity)("?").mkString(", ")})")
    rows.foreach { r =>
      r.productIterator.zipWithIndex.foreach { case (v, i) => ps.setObject(i + 1, v) }
      ps.addBatch()
    }
    ps.executeBatch()
    ps.close()
    name
  }

  def query[A](sql: String)(row: java.sql.ResultSet => A): Vector[A] = {
    val st  = conn.createStatement()
    val rs  = st.executeQuery(sql)
    val out = Vector.newBuilder[A]
    while (rs.next()) out += row(rs)
    rs.close(); st.close()
    out.result()
  }
}

object DuckCheck {

  def lit(s: String): String = "'" + s.replace("'", "''") + "'"

  private def substrSql(piece: String, s: Int, e: Int): String =
    if (s < 0 || s >= e) "CAST(NULL AS VARCHAR)"
    else s"(CASE WHEN length($piece) >= $e THEN substring($piece, ${s + 1}, ${e - s}) END)"

  private def pieceSql(input: String, delim: Char, i: Int): String =
    if (i < 1) "CAST(NULL AS VARCHAR)" else s"(string_split($input, ${lit(delim.toString)})[$i])"

  /** SQL for one unit applied to column `x`. */
  def unitSql(u: TransformationUnit, x: String): String = u match {
    case Substr(s, e)            => substrSql(x, s, e)
    case Split(c, i)             => pieceSql(x, c, i)
    case SplitSubstr(c, i, s, e) => substrSql(pieceSql(x, c, i), s, e)
    case TwoCharSplitSubstr(c1, c2, i, s, e) =>
      val unified = s"replace($x, ${lit(c2.toString)}, ${lit(c1.toString)})"
      substrSql(pieceSql(unified, c1, i), s, e)
    case Literal(str)            => lit(str)
  }

  /** SQL for a whole transformation applied to column `x`. */
  def transformationSql(t: Transformation, x: String): String =
    if (t.units.isEmpty) lit("") else t.units.map(unitSql(_, x)).mkString("(", " || ", ")")

  /** What the checks of one discovery found. */
  final case class DiscoveryCheck(unionCovered: Int, errors: Vector[String])

  /** Checks a discovery's cover set against DuckDB's evaluation of its rules
    * over the input pairs held in `table` (rid, src, tgt):
    *   - every `Chosen.covered` equals the set of rows DuckDB finds covered;
    *   - the marginal gains sum to the size of the union DuckDB finds.
    * Returns the union size (the gold rows covered when the input pairs are
    * the gold pairs).
    */
  def checkDiscovery(duck: DuckCheck, table: String, cover: Seq[CoverSet.Chosen]): DiscoveryCheck = {
    if (cover.isEmpty) return DiscoveryCheck(0, Vector.empty)
    val hits = cover.map(c => s"(${transformationSql(c.t, "src")} = tgt)")
    val sql =
      s"SELECT rid, ${hits.zipWithIndex.map { case (h, k) => s"coalesce($h, false) AS c$k" }.mkString(", ")} " +
        s"FROM $table ORDER BY rid"
    val rows = duck.query(sql)(rs => (rs.getLong(1), cover.indices.map(k => rs.getBoolean(k + 2))))
    val errors = mutable.ArrayBuffer.empty[String]
    for ((c, k) <- cover.zipWithIndex) {
      val recount = rows.collect { case (rid, cs) if cs(k) => rid.toInt }
      if (recount != c.covered.toVector.sorted)
        errors += s"${c.t.render}: program covers ${c.covered.length} rows, DuckDB ${recount.size}"
    }
    val union = rows.count(_._2.exists(identity))
    val gains = cover.map(_.marginalGain).sum
    if (gains != union) errors += s"marginal gains sum to $gains, DuckDB union is $union"
    DiscoveryCheck(union, errors.toVector)
  }

  /** The (src_id, tgt_id) pairs of the transform-join of `src` (src_id,
    * src_val) and `tgt` (tgt_id, tgt_val) under `rules`, evaluated by DuckDB.
    * With no rules the join is the plain equi-join on the raw values, as in
    * `TransformJoin.join`.
    */
  def joinPairs(duck: DuckCheck, src: String, tgt: String, rules: Seq[Transformation]): Set[(Long, Long)] = {
    val keys = if (rules.isEmpty) Seq("s.src_val") else rules.map(transformationSql(_, "s.src_val"))
    val sql = keys
      .map(k => s"SELECT s.src_id, t.tgt_id FROM $src s JOIN $tgt t ON t.tgt_val = $k")
      .mkString(" UNION ")
    duck.query(sql)(rs => (rs.getLong(1), rs.getLong(2))).toSet
  }
}

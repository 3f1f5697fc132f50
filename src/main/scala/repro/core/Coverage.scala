package repro.core

import scala.collection.mutable

/** Coverage computation with the paper's eager unit-level filtering
  * (§4.1.5).
  *
  * For every row we maintain a hash set of units already proven unable to
  * participate in any transformation covering that row (the unit is undefined
  * on the source, or its output is not a substring of the target). Before a
  * transformation is applied to a row, its units are probed against the
  * row's set in O(1); a hit skips the application entirely. Because the
  * candidate set is a Cartesian product of units, the same units recur across
  * many transformations and the filter absorbs the bulk of the work.
  */
object Coverage {

  /** Cache counters: a `hit` is a (transformation × row) application skipped
    * by the non-covering-unit filter; a `miss` is a full application.
    */
  final case class CacheStats(hits: Long, misses: Long) {
    def +(o: CacheStats): CacheStats = CacheStats(hits + o.hits, misses + o.misses)
    def hitRatio: Double = if (hits + misses == 0) 0.0 else hits.toDouble / (hits + misses)
  }
  object CacheStats { val zero: CacheStats = CacheStats(0L, 0L) }

  /** Per-input-row state reused across all transformations: the source and
    * target strings plus the growing set of known non-covering units.
    */
  final class RowState(val src: String, val tgt: String) {
    val nonCovering: mutable.HashSet[TransformationUnit] = mutable.HashSet.empty
  }

  def rowStates(pairs: Seq[(String, String)]): Array[RowState] =
    pairs.iterator.map { case (s, t) => new RowState(s, t) }.toArray

  /** Applies `t` to one row, updating the row's non-covering cache. Returns
    * (skippedByCache, covers).
    */
  def applyToRow(t: Transformation, row: RowState): (Boolean, Boolean) = {
    val units = t.units
    var k = 0
    while (k < units.length) {
      if (row.nonCovering.contains(units(k))) return (true, false)
      k += 1
    }
    // Full application with eager per-unit filtering: any unit whose output
    // is not a substring of the target is recorded for future probes.
    var covered = true
    val sb      = new StringBuilder
    k = 0
    while (k < units.length) {
      units(k)(row.src) match {
        case Some(out) =>
          if (covered) sb.append(out)
          if (!row.tgt.contains(out)) { row.nonCovering += units(k); covered = false }
        case None =>
          row.nonCovering += units(k)
          covered = false
      }
      k += 1
    }
    (false, covered && sb.toString == row.tgt)
  }

  /** Coverage *counts* for every transformation (O(1) memory per
    * transformation), plus cache statistics.
    */
  def counts(
      transformations: IndexedSeq[Transformation],
      rows: Array[RowState],
  ): (Array[Int], CacheStats) = {
    val cov    = new Array[Int](transformations.length)
    var hits   = 0L
    var misses = 0L
    var ti     = 0
    while (ti < transformations.length) {
      val t = transformations(ti)
      var ri = 0
      while (ri < rows.length) {
        val (skipped, covers) = applyToRow(t, rows(ri))
        if (skipped) hits += 1L else misses += 1L
        if (covers) cov(ti) += 1
        ri += 1
      }
      ti += 1
    }
    (cov, CacheStats(hits, misses))
  }

  /** The row indices that `t` covers, in order. Probes and extends the rows'
    * non-covering caches like [[counts]], so after `counts` it is cheap.
    */
  def covered(t: Transformation, rows: Array[RowState]): Array[Int] =
    rows.indices.filter(ri => applyToRow(t, rows(ri))._2).toArray
}

package repro.core

import scala.collection.mutable

/** Coverage computation with the paper's unit-level filtering (§4.1.5).
  *
  * A transformation can cover a row only if each of its units is defined on
  * the row's source and produces a substring of the row's target. A
  * [[UnitFilter]] evaluates every unit once over all rows into a row bitset;
  * a transformation's candidate rows are the AND of its units' bitsets, and
  * only those rows are verified by applying the transformation. Because the
  * candidate set is a Cartesian product of a few thousand units, the same
  * units recur across many transformations and the filter absorbs the bulk
  * of the work.
  */
object Coverage {

  /** Filter counters: a `hit` is a (transformation × row) application the
    * unit filter eliminates; a `miss` is a verified row.
    */
  final case class CacheStats(hits: Long, misses: Long)

  /** One input row: the source string and the target it should map to. */
  final case class RowState(src: String, tgt: String)

  def rowStates(pairs: Seq[(String, String)]): Array[RowState] =
    pairs.iterator.map { case (s, t) => RowState(s, t) }.toArray

  /** The unit filter over one input. Each unit's row bitset is computed on
    * first use and memoised; results depend only on the transformation and
    * the rows, never on evaluation order.
    */
  final class UnitFilter(rows: Array[RowState]) {
    private val unitRows = mutable.HashMap.empty[TransformationUnit, java.util.BitSet]
    private val allRows  = new java.util.BitSet(rows.length)
    allRows.set(0, rows.length)

    /** Rows where `u` is defined and its output occurs in the target. */
    private def rowsOf(u: TransformationUnit): java.util.BitSet =
      unitRows.getOrElseUpdate(u, {
        val bits = new java.util.BitSet(rows.length)
        var ri   = 0
        while (ri < rows.length) {
          if (u(rows(ri).src).exists(rows(ri).tgt.contains)) bits.set(ri)
          ri += 1
        }
        bits
      })

    /** Rows that survive the AND of `t`'s unit bitsets; every row for a
      * transformation with no units.
      */
    private[Coverage] def candidates(t: Transformation): java.util.BitSet = {
      val bits = allRows.clone().asInstanceOf[java.util.BitSet]
      val it   = t.units.iterator
      while (it.hasNext && !bits.isEmpty) bits.and(rowsOf(it.next()))
      bits
    }

    /** The row indices that `t` covers, in order. */
    def covered(t: Transformation): Array[Int] = verify(t, candidates(t))

    /** The rows among `candidates` that `t` covers, in order. */
    private[Coverage] def verify(t: Transformation, candidates: java.util.BitSet): Array[Int] =
      candidates.stream().filter(ri => t.covers(rows(ri).src, rows(ri).tgt)).toArray
  }

  /** Coverage *counts* for every transformation (O(1) memory per
    * transformation), plus filter statistics.
    */
  def counts(
      transformations: IndexedSeq[Transformation],
      rows: Array[RowState],
  ): (Array[Int], CacheStats) = {
    val filter = new UnitFilter(rows)
    var misses = 0L
    val cov = transformations.iterator.map { t =>
      val bits = filter.candidates(t)
      misses += bits.cardinality()
      filter.verify(t, bits).length
    }.toArray
    (cov, CacheStats(transformations.length.toLong * rows.length - misses, misses))
  }
}

package repro.core

import java.util.concurrent.{ConcurrentHashMap, ForkJoinTask}
import java.util.stream.IntStream

/** Coverage computation with the paper's unit-level filtering (§4.1.5).
  *
  * A transformation can cover a row only if each of its units is defined on
  * the row's source and produces a substring of the row's target. A
  * [[UnitFilter]] evaluates every unit once over all rows into a row bitset,
  * keeping the unit's output on each row of that bitset; a transformation's
  * candidate rows are the AND of its units' bitsets, and only those rows are
  * verified, by chaining the memoised outputs along the target. Because the
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

  /** One unit over the rows of a filter: `bits` (64 rows a word) marks the
    * rows where the unit is defined and its output occurs in the target;
    * `out(ri)` is that output on a marked row. `outs` is null for a literal,
    * which keeps its one string in `lit`, and for a unit marking no row,
    * whose output is never read.
    */
  private final class UnitRows(val bits: Array[Long], outs: Array[String], lit: String) {
    def out(ri: Int): String = if (outs == null) lit else outs(ri)
  }

  /** The unit filter over one input. Each unit's rows and outputs are
    * computed on first use and memoised; a unit's entry depends only on the
    * unit and the rows, so results never depend on evaluation order or on
    * which thread computed an entry. Safe to share between threads.
    */
  final class UnitFilter(rows: Array[RowState]) {
    private val n     = rows.length
    private val words = (n + 63) >>> 6
    private val memo  = new ConcurrentHashMap[TransformationUnit, UnitRows]()
    private val evaluate: java.util.function.Function[TransformationUnit, UnitRows] = u => {
      val lit  = u match { case Literal(s) => s; case _ => null }
      val bits = new Array[Long](words)
      val outs = if (lit == null) new Array[String](n) else null
      var ri   = 0
      while (ri < n) {
        u(rows(ri).src) match {
          case Some(o) if rows(ri).tgt.contains(o) =>
            bits(ri >>> 6) |= 1L << ri
            if (outs != null) outs(ri) = o
          case _ =>
        }
        ri += 1
      }
      new UnitRows(bits, if (bits.forall(_ == 0L)) null else outs, lit)
    }

    private def unitRows(u: TransformationUnit): UnitRows = {
      val r = memo.get(u)
      if (r != null) r else memo.computeIfAbsent(u, evaluate)
    }

    /** True iff the memoised outputs of `us` on row `ri`, laid end to end,
      * spell its target: each output starts where the previous one ended
      * and the last one ends at the target's end.
      */
    private def verifies(us: Array[UnitRows], ri: Int): Boolean = {
      val tgt = rows(ri).tgt
      var pos = 0
      var k   = 0
      while (k < us.length) {
        val o = us(k).out(ri)
        if (!tgt.startsWith(o, pos)) return false
        pos += o.length
        k += 1
      }
      pos == tgt.length
    }

    /** Verifies every row that survives the AND of `t`'s unit bitsets (every
      * row when `t` has no units), calling `hit` on each covered row in
      * order. Returns the number of surviving rows.
      */
    private[Coverage] def scan(t: Transformation)(hit: Int => Unit): Int = {
      val us = new Array[UnitRows](t.units.length)
      var k  = 0
      while (k < us.length) { us(k) = unitRows(t.units(k)); k += 1 }
      var survivors = 0
      var w         = 0
      while (w < words) {
        var bits = if (w == words - 1 && (n & 63) != 0) (1L << n) - 1 else -1L
        k = 0
        while (k < us.length && bits != 0L) { bits &= us(k).bits(w); k += 1 }
        survivors += java.lang.Long.bitCount(bits)
        while (bits != 0L) {
          val ri = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
          if (verifies(us, ri)) hit(ri)
          bits &= bits - 1
        }
        w += 1
      }
      survivors
    }

    /** The row indices that `t` covers, in order. */
    def covered(t: Transformation): Array[Int] = {
      val out = Array.newBuilder[Int]
      scan(t)(out += _)
      out.result()
    }
  }

  /** False when the common pool's parallelism property is 0, which leaves
    * the pool without worker threads: a parallel stream started outside any
    * pool then runs only on the threads that wait for it, and on JDK 17 two
    * such callers (the executor threads of a Spark count) can each park on a
    * subtask the other queued, for ever.
    */
  private val commonPoolHasWorkers =
    !sys.props.get("java.util.concurrent.ForkJoinPool.common.parallelism")
      .exists(p => scala.util.Try(Integer.parseInt(p)).toOption.contains(0))

  /** Coverage *counts* for every transformation (O(1) memory per
    * transformation), plus filter statistics. Transformations are counted in
    * parallel on the common fork-join pool (or on the pool of the calling
    * worker thread; sequentially when the common pool has no workers),
    * sharing one [[UnitFilter]]; each index writes only its own slots, so
    * counts and counters do not depend on the thread count.
    */
  def counts(
      transformations: IndexedSeq[Transformation],
      rows: Array[RowState],
  ): (Array[Int], CacheStats) = {
    val filter    = new UnitFilter(rows)
    val cov       = new Array[Int](transformations.length)
    val survivors = new Array[Int](transformations.length)
    val indices   = IntStream.range(0, transformations.length)
    val parallel  = commonPoolHasWorkers || ForkJoinTask.inForkJoinPool()
    (if (parallel) indices.parallel() else indices).forEach { i =>
      var c = 0
      survivors(i) = filter.scan(transformations(i))(_ => c += 1)
      cov(i) = c
    }
    val misses = survivors.iterator.map(_.toLong).sum
    (cov, CacheStats(transformations.length.toLong * rows.length - misses, misses))
  }
}

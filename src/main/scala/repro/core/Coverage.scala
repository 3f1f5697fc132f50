package repro.core

import java.util.concurrent.ForkJoinTask
import java.util.stream.IntStream

/** Coverage computation with the paper's unit-level filtering (§4.1.5).
  *
  * A transformation can cover a row only if each of its units is defined on
  * the row's source and produces a substring of the row's target. A
  * [[CandidateFilter]] evaluates every interned unit once over all rows into
  * a row bitset, keeping the unit's output on each row of that bitset; a
  * candidate's rows are the AND of its units' bitsets, and only those rows
  * are verified, by chaining the memoised outputs along the target. Because
  * the candidate set is a Cartesian product of a few thousand units, the
  * same units recur across many transformations and the filter absorbs the
  * bulk of the work.
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

  /** `u` evaluated on every row of `rows`. */
  private def evaluate(u: TransformationUnit, rows: Array[RowState]): UnitRows = {
    val n    = rows.length
    val lit  = u match { case Literal(s) => s; case _ => null }
    val bits = new Array[Long]((n + 63) >>> 6)
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

  /** True iff the outputs of `us` on row `ri`, laid end to end, spell its
    * target: each output starts where the previous one ended and the last
    * one ends at the target's end.
    */
  private def verifies(us: Array[UnitRows], tgt: String, ri: Int): Boolean = {
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

  /** Verifies every row that survives the AND of the bitsets of `us`, the
    * units of one transformation in order (every row when there are none),
    * calling `hit` on each covered row in order. Returns the number of
    * surviving rows.
    */
  private def scan(us: Array[UnitRows], rows: Array[RowState])(hit: Int => Unit): Int = {
    val n         = rows.length
    val words     = (n + 63) >>> 6
    var survivors = 0
    var w         = 0
    while (w < words) {
      var bits = if (w == words - 1 && (n & 63) != 0) (1L << n) - 1 else -1L
      var k    = 0
      while (k < us.length && bits != 0L) { bits &= us(k).bits(w); k += 1 }
      survivors += java.lang.Long.bitCount(bits)
      while (bits != 0L) {
        val ri = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        if (verifies(us, rows(ri).tgt, ri)) hit(ri)
        bits &= bits - 1
      }
      w += 1
    }
    survivors
  }

  /** The unit filter over the candidates of one input. Each unit is
    * evaluated once over all rows, before the first candidate using it is
    * scanned, into an array indexed by unit id; an entry depends only on the
    * unit and the rows, so results never depend on evaluation order or on
    * which thread computed an entry. [[counts]] runs in parallel; the filter
    * itself is not safe to share between threads.
    */
  final class CandidateFilter(val candidates: Candidates, val rows: Array[RowState]) {
    private val memo = new Array[UnitRows](candidates.units.length)
    import candidates.{ids, offsets}

    /** Evaluates every unit of candidates `from until until` not yet in the memo. */
    private def prepare(from: Int, until: Int): Unit = {
      var k = offsets(from)
      while (k < offsets(until) && memo(ids(k)) != null) k += 1
      if (k < offsets(until)) {
        val todo = new java.util.BitSet(memo.length)
        while (k < offsets(until)) {
          if (memo(ids(k)) == null) todo.set(ids(k))
          k += 1
        }
        val us = todo.stream().toArray
        inParallel(us.length)(j => memo(us(j)) = evaluate(candidates.units(us(j)), rows))
      }
    }

    /** The memoised rows of candidate `c`'s units, in order. */
    private def unitRows(c: Int): Array[UnitRows] = {
      val us = new Array[UnitRows](offsets(c + 1) - offsets(c))
      var k  = 0
      while (k < us.length) { us(k) = memo(ids(offsets(c) + k)); k += 1 }
      us
    }

    /** Coverage counts of candidates `from until until` (O(1) memory a
      * candidate), plus filter statistics. Candidates are counted in
      * parallel; each index writes only its own slots, so counts and
      * counters do not depend on the thread count.
      */
    def counts(from: Int = 0, until: Int = candidates.size): (Array[Int], CacheStats) = {
      prepare(from, until)
      val cov       = new Array[Int](until - from)
      val survivors = new Array[Int](until - from)
      inParallel(until - from) { i =>
        var c = 0
        survivors(i) = scan(unitRows(from + i), rows)(_ => c += 1)
        cov(i) = c
      }
      val misses = survivors.iterator.map(_.toLong).sum
      (cov, CacheStats((until - from).toLong * rows.length - misses, misses))
    }

    /** The row indices that candidate `c` covers, in order. */
    def covered(c: Int): Array[Int] = {
      prepare(c, c + 1)
      val out = Array.newBuilder[Int]
      scan(unitRows(c), rows)(out += _)
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

  /** `f(0) … f(n - 1)` on the common fork-join pool (or on the pool of the
    * calling worker thread; sequentially when the common pool has no
    * workers).
    */
  private def inParallel(n: Int)(f: Int => Unit): Unit = {
    val indices = IntStream.range(0, n)
    (if (commonPoolHasWorkers || ForkJoinTask.inForkJoinPool()) indices.parallel() else indices).forEach(f(_))
  }

  /** Coverage counts for every transformation, in parallel, plus filter
    * statistics: [[CandidateFilter.counts]] over the transformations'
    * interned units.
    */
  def counts(
      transformations: IndexedSeq[Transformation],
      rows: Array[RowState],
  ): (Array[Int], CacheStats) = new CandidateFilter(Candidates.of(transformations), rows).counts()
}

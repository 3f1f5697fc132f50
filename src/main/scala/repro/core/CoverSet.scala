package repro.core

import scala.collection.mutable

/** Greedy minimal set cover over transformations (paper §4.1.6).
  *
  * Finding the minimal covering set is the classic NP-complete set-cover
  * problem; the greedy rule — repeatedly take the transformation covering the
  * most still-uncovered rows — achieves the H(n) <= ln(n) + 1 approximation
  * bound.
  */
object CoverSet {

  /** One chosen transformation with the rows it covers (all rows, not just
    * the marginal ones) and the marginal gain at selection time.
    */
  final case class Chosen(t: Transformation, covered: Array[Int], marginalGain: Int)

  /** The one ranking of (transformation, row count) pairs, for the top answer
    * and every greedy step: more rows first, then fewer placeholders, then
    * rendering. Rendering is injective, so the order is total and results do
    * not depend on input order.
    */
  val order: Ordering[(Transformation, Int)] =
    Ordering
      .by[(Transformation, Int), Int](-_._2)
      .orElseBy(_._1.placeholderCount)
      .orElseBy(_._1.render)

  /** Greedy cover. `candidates` pair each transformation with the number of
    * rows it covers over an input of `nRows` rows, and `covered` gives its
    * covered row indices; `minSupportRows` drops transformations with too
    * little support (the paper's support threshold, §6.4 uses 1% on Open
    * data; §5.3 argues at least two supporting rows).
    *
    * Lazy greedy (Minoux 1978): a candidate's row count bounds its marginal
    * gain, so candidates wait in a heap on that bound, and only the top ones
    * have their gain recomputed. The heap orders by the first two keys of
    * [[order]] (bound, then placeholders), and the entries tied with the top
    * on both are taken out together: those whose gain fell below the bound
    * go back with the gain as their bound, and the rest are taken in
    * rendering order while their gain still equals the bound. The result is
    * the naive greedy's cover under [[order]], but `covered` runs only for
    * candidates that reach the top, and only those that still hold their
    * bound there are rendered.
    */
  def greedy(
      candidates: Seq[(Transformation, Int)],
      nRows: Int,
      minSupportRows: Int = 2,
  )(covered: Transformation => Array[Int]): Vector[Chosen] = {
    val cands = candidates.filter(_._2 >= math.max(1, minSupportRows)).toVector
    greedyByIndex(cands.map(_._1).toArray, cands.map(_._2).toArray, nRows)(i => covered(cands(i)._1))
  }

  /** [[greedy]] over candidates named by index: `ts(i)` covers `rowCounts(i)`
    * rows, listed by `covered(i)`. Every candidate enters the heap, so the
    * caller applies the support floor.
    */
  private[core] def greedyByIndex(
      ts: Array[Transformation],
      rowCounts: Array[Int],
      nRows: Int,
  )(covered: Int => Array[Int]): Vector[Chosen] = {
    val bound  = rowCounts.clone()
    val places = Array.tabulate(ts.length)(ts(_).placeholderCount)
    val rowsOf = new Array[Array[Int]](ts.length)
    def rows(i: Int): Array[Int] = {
      if (rowsOf(i) == null) rowsOf(i) = covered(i)
      rowsOf(i)
    }
    val heap = new java.util.PriorityQueue[Integer](math.max(1, ts.length), (a: Integer, b: Integer) =>
      if (bound(a) != bound(b)) Integer.compare(bound(b), bound(a)) else Integer.compare(places(a), places(b)))
    ts.indices.foreach(heap.add(_))
    val uncovered = new java.util.BitSet(nRows)
    uncovered.set(0, nRows)
    def gain(i: Int) = rows(i).count(uncovered.get)
    val chosen = Vector.newBuilder[Chosen]
    while (!heap.isEmpty && !uncovered.isEmpty) {
      val top  = heap.poll().intValue
      val tied = mutable.ArrayBuffer(top)
      while (!heap.isEmpty && bound(heap.peek) == bound(top) && places(heap.peek) == places(top))
        tied += heap.poll().intValue
      val holding = mutable.ArrayBuffer.empty[Int]
      for (i <- tied) {
        val g = gain(i)
        if (g == bound(i)) holding += i
        else if (g > 0) { bound(i) = g; heap.add(i) }
      }
      for (i <- holding.sortBy(ts(_).render)) {
        val g = gain(i)
        if (g == bound(i)) {
          chosen += Chosen(ts(i), rows(i), g)
          rows(i).foreach(uncovered.clear)
        } else if (g > 0) { bound(i) = g; heap.add(i) }
      }
    }
    chosen.result()
  }

  /** Rows in the union of the given covered-row sets over `nRows` rows. */
  def unionCoverage(covered: Seq[Array[Int]], nRows: Int): Int = {
    val bits = new java.util.BitSet(nRows)
    covered.foreach(_.foreach(bits.set))
    bits.cardinality()
  }
}

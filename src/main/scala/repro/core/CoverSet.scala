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
    * gain, so candidates wait in a heap on that bound, and only the top one
    * has its gain recomputed. It is taken when the gain still equals its
    * bound and re-queued with the lower bound otherwise. The result is the
    * naive greedy's cover, but `covered` runs only for the few candidates
    * that reach the top.
    */
  def greedy(
      candidates: Seq[(Transformation, Int)],
      nRows: Int,
      minSupportRows: Int = 2,
  )(covered: Transformation => Array[Int]): Vector[Chosen] = {
    val heap = mutable.PriorityQueue.from(
      candidates.iterator.filter(_._2 >= math.max(1, minSupportRows))
    )(order.reverse)
    val rowsOf    = mutable.HashMap.empty[Transformation, Array[Int]]
    val uncovered = new java.util.BitSet(nRows)
    uncovered.set(0, nRows)
    val chosen = Vector.newBuilder[Chosen]
    while (heap.nonEmpty && !uncovered.isEmpty) {
      val (t, bound) = heap.dequeue()
      val rows       = rowsOf.getOrElseUpdate(t, covered(t))
      val gain       = rows.count(uncovered.get)
      if (gain == bound) {
        chosen += Chosen(t, rows, gain)
        rows.foreach(uncovered.clear)
      } else if (gain > 0) heap.enqueue((t, gain))
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

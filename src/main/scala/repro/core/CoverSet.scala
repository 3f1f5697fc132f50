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

  /** Greedy cover over the candidates `heap` of `cands`: candidate `i`
    * covers `rowCounts(i)` of the input's `nRows` rows, listed by
    * `covered(i)`. Every candidate of `heap` competes, so the caller applies
    * the support floor (§5.3; §6.4 uses 1% on Open data).
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
    * bound there become transformations, to be rendered.
    */
  def greedy(
      cands: Candidates,
      heap: Array[Int],
      rowCounts: Array[Int],
      nRows: Int,
  )(covered: Int => Array[Int]): Vector[Chosen] = {
    // Indexed by heap position.
    val bound  = heap.map(rowCounts(_))
    val places = heap.map(cands.placeholderCount)
    val rowsOf = new Array[Array[Int]](heap.length)
    val ts     = new Array[Transformation](heap.length)
    def rows(k: Int): Array[Int] = {
      if (rowsOf(k) == null) rowsOf(k) = covered(heap(k))
      rowsOf(k)
    }
    def t(k: Int): Transformation = {
      if (ts(k) == null) ts(k) = cands.transformation(heap(k))
      ts(k)
    }
    val queue = new java.util.PriorityQueue[Integer](math.max(1, heap.length), (a: Integer, b: Integer) =>
      if (bound(a) != bound(b)) Integer.compare(bound(b), bound(a)) else Integer.compare(places(a), places(b)))
    heap.indices.foreach(queue.add(_))
    val uncovered = new java.util.BitSet(nRows)
    uncovered.set(0, nRows)
    def gain(k: Int) = rows(k).count(uncovered.get)
    val chosen = Vector.newBuilder[Chosen]
    while (!queue.isEmpty && !uncovered.isEmpty) {
      val top  = queue.poll().intValue
      val tied = mutable.ArrayBuffer(top)
      while (!queue.isEmpty && bound(queue.peek) == bound(top) && places(queue.peek) == places(top))
        tied += queue.poll().intValue
      val holding = mutable.ArrayBuffer.empty[Int]
      for (k <- tied) {
        val g = gain(k)
        if (g == bound(k)) holding += k
        else if (g > 0) { bound(k) = g; queue.add(k) }
      }
      for (k <- holding.sortBy(t(_).render)) {
        val g = gain(k)
        if (g == bound(k)) {
          chosen += Chosen(t(k), rows(k), g)
          rows(k).foreach(uncovered.clear)
        } else if (g > 0) { bound(k) = g; queue.add(k) }
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

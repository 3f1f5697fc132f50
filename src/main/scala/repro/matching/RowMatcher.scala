package repro.matching

import scala.collection.mutable

/** N-gram candidate row matching (paper §4.2.1, Algorithm 1).
  *
  * Joinable rows are expected to share n-grams (placeholders are the backbone
  * of the transformations), but a single common n-gram is a weak signal
  * (stop words, shared prefixes). Each n-gram is therefore scored by
  *
  *   Rscore(t) = IRF(t, SC) · IRF(t, TC),  IRF(t, c) = 1 / #rows of c containing t
  *
  * and, for every source row and every n in [n0, nMax], the n-gram with the
  * largest Rscore is the row's representative; target rows containing a
  * representative become candidate pairs. An inverted index (hash of n-gram →
  * posting list) makes retrieval O(1) per representative.
  */
object RowMatcher {

  /** The shortest n-gram length: n0 = 4, the best F1 on the paper's
    * benchmark (§4.2.1).
    */
  final val N0 = 4

  /** The longest n-gram length: nMax = 20, about half a typical row (§4.2.1). */
  final val NMax = 20

  /** Candidate pairs as (source row index, target row index). Matching is
    * case-insensitive, as in the paper's examples; returned indices refer to
    * the original rows.
    */
  def matchPairs(sourceRows: IndexedSeq[String], targetRows: IndexedSeq[String]): Set[(Int, Int)] = {
    val src = sourceRows.map(_.toLowerCase)
    val tgt = targetRows.map(_.toLowerCase)

    // Row-presence counts per column and target posting lists, built once for
    // the whole n-range (the inverted index of §4.2.1).
    val srcCount    = mutable.HashMap.empty[String, Int]
    val tgtPostings = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
    for (r <- src.indices; (_, g) <- NGrams.distinctRange(src(r), N0, NMax))
      srcCount.updateWith(g) { c => Some(c.getOrElse(0) + 1) }
    for (r <- tgt.indices; (_, g) <- NGrams.distinctRange(tgt(r), N0, NMax))
      tgtPostings.getOrElseUpdate(g, mutable.ArrayBuffer.empty) += r

    val out = mutable.LinkedHashSet.empty[(Int, Int)]
    for (r <- src.indices; n <- N0 to NMax) {
      val grams = NGrams.distinct(src(r), n)
      // Argmax of Rscore = 1 / (srcCount · tc) as the smallest integer
      // product, so equal scores compare equal; on ties prefer the
      // lexicographically smaller gram so runs are reproducible.
      var repProduct = 0L
      var rep: String = null
      for (g <- grams) {
        val tc = tgtPostings.get(g).map(_.size).getOrElse(0)
        if (tc > 0) {
          val product = srcCount(g).toLong * tc
          if (rep == null || product < repProduct || (product == repProduct && g < rep)) {
            repProduct = product
            rep = g
          }
        }
      }
      if (rep != null)
        for (r2 <- tgtPostings(rep)) out += ((r, r2))
    }
    out.toSet
  }
}

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

  /** Matching knobs. The paper sets n0 = 4 (best F1 on its benchmark) and
    * nMax = 20 (about half a typical row). Matching is case-insensitive, as
    * in the paper's examples; returned indices refer to the original rows.
    */
  final case class MatchConfig(n0: Int = 4, nMax: Int = 20, lowercase: Boolean = true)

  /** Candidate pairs as (source row index, target row index). */
  def matchPairs(
      sourceRows: IndexedSeq[String],
      targetRows: IndexedSeq[String],
      cfg: MatchConfig = MatchConfig(),
  ): Set[(Int, Int)] = {
    val src = if (cfg.lowercase) sourceRows.map(_.toLowerCase) else sourceRows
    val tgt = if (cfg.lowercase) targetRows.map(_.toLowerCase) else targetRows

    // Row-presence counts per column and target posting lists, built once for
    // the whole n-range (the inverted index of §4.2.1).
    val srcCount    = mutable.HashMap.empty[String, Int]
    val tgtPostings = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
    for (r <- src.indices; (_, g) <- NGrams.distinctRange(src(r), cfg.n0, cfg.nMax))
      srcCount.updateWith(g) { c => Some(c.getOrElse(0) + 1) }
    for (r <- tgt.indices; (_, g) <- NGrams.distinctRange(tgt(r), cfg.n0, cfg.nMax))
      tgtPostings.getOrElseUpdate(g, mutable.ArrayBuffer.empty) += r

    val out = mutable.LinkedHashSet.empty[(Int, Int)]
    for (r <- src.indices; n <- cfg.n0 to cfg.nMax) {
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

  /** Picks source/target direction: the column with the longer average text
    * is the more informative one and is tagged as source (§4.2.1).
    */
  def sourceIsFirst(colA: Seq[String], colB: Seq[String]): Boolean = {
    def avg(c: Seq[String]) = if (c.isEmpty) 0.0 else c.map(_.length).sum.toDouble / c.size
    avg(colA) >= avg(colB)
  }
}

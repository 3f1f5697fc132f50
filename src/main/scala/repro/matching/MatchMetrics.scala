package repro.matching

/** Precision / recall / F1 of predicted candidate pairs against gold pairs
  * (paper Table 1).
  */
object MatchMetrics {

  final case class PRF(precision: Double, recall: Double, f1: Double)

  def score(predicted: Set[(Int, Int)], gold: Set[(Int, Int)]): PRF = {
    val tp = (predicted intersect gold).size
    val p  = if (predicted.isEmpty) 0.0 else tp.toDouble / predicted.size
    val r  = if (gold.isEmpty) 0.0 else tp.toDouble / gold.size
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    PRF(p, r, f1)
  }
}

package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Transformation
import scala.util.Random

/** A pair of joinable columns plus the gold matching and (when the generator
  * knows them) the gold transformations — the common shape consumed by the
  * row matcher, discovery, the Auto-Join baseline and the benches.
  */
final case class JoinDataset(
    name: String,
    source: Vector[String],
    target: Vector[String],
    goldPairs: Set[(Int, Int)],
    goldTransformations: Vector[Transformation] = Vector.empty,
) {
  def avgSourceLen: Double =
    if (source.isEmpty) 0.0 else source.map(_.length).sum.toDouble / source.size

  /** Gold pairs materialized as (source string, target string). */
  def goldPairStrings: Vector[(String, String)] = materialize(goldPairs)

  /** Index pairs materialized as strings (for discovery over matched pairs). */
  def materialize(pairs: Iterable[(Int, Int)]): Vector[(String, String)] =
    pairs.toVector.sortBy(identity).map { case (i, j) => (source(i), target(j)) }

  /** The two columns as single-column DataFrames with stable row ids, for the
    * distributed pipeline.
    */
  def sourceDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    source.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("src_id", "src_val")
  }
  def targetDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    target.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("tgt_id", "tgt_val")
  }
}

object JoinDataset {

  /** Up to `n` distinct rows from `gen`, in first-drawn order, giving up
    * after `maxDraws` draws (entity pools can collide on small tables).
    */
  def distinctRows(n: Int, maxDraws: Int)(gen: => String): Vector[String] = {
    val seen  = scala.collection.mutable.LinkedHashSet.empty[String]
    var draws = 0
    while (seen.size < n && draws < maxDraws) { seen += gen; draws += 1 }
    seen.toVector
  }

  /** Draws index k with probability `weights(k)` / `weights.sum`. */
  def weighted(weights: Seq[Double]): Random => Int = {
    val cum = weights.scanLeft(0.0)(_ + _).tail
    rnd => {
      val x = rnd.nextDouble() * cum.last
      cum.indexWhere(x <= _)
    }
  }

  /** The gold table of a simulator: in row order, `pick` draws each source
    * row's gold rule from `rnd` and the rule's output becomes its target row;
    * then the target rows are shuffled with `rnd`, so that position cannot
    * leak into matching or discovery. Throws if a rule is undefined on its
    * row.
    */
  def fromGoldRules(
      name: String,
      source: Vector[String],
      rules: Vector[Transformation],
      rnd: Random,
      pick: Random => Int,
  ): JoinDataset = {
    val targets = source.map { s =>
      val k = pick(rnd)
      rules(k)(s).getOrElse(
        throw new IllegalStateException(s"$name: gold rule ${rules(k).render} undefined on '$s'")
      )
    }
    val perm   = rnd.shuffle(source.indices.toVector)
    val target = new Array[String](source.size)
    for (i <- source.indices) target(perm(i)) = targets(i)
    JoinDataset(
      name = name,
      source = source,
      target = target.toVector,
      goldPairs = source.indices.map(i => (i, perm(i))).toSet,
      goldTransformations = rules,
    )
  }
}

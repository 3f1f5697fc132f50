package repro.sparkjoin

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult}
import repro.core.{Discovery, Transformation}
import repro.matching.RowMatcher

/** The end-to-end distributed transformation join (paper §4.2, and the
  * reproduction target: "a distributed DataFrame UDF that generates candidate
  * transformations and performs join on transformed columns").
  *
  * Pipeline: distributed n-gram row matching → sample of candidate pairs →
  * local transformation discovery (§4.1) → each discovered transformation is
  * registered as a UDF over the source column and the per-transformation
  * frames are unioned → a plain Catalyst equi-join on the transformed key
  * against the target column.
  */
object TransformJoin {

  final case class TransformJoinConfig(
      matching: RowMatcher.MatchConfig = RowMatcher.MatchConfig(),
      discovery: DiscoveryConfig = DiscoveryConfig(),
      /** Cap on candidate pairs fed to discovery (the paper samples 3 000 of
        * Open data's 360 125 matched pairs, §6.4).
        */
      samplePairs: Int = 3000,
      sampleSeed: Long = 13L,
  )

  final case class TransformJoinResult(
      joined: DataFrame,
      transformations: Vector[Transformation],
      matchedPairs: Long,
      discovery: DiscoveryResult,
  )

  /** Applies one discovered transformation as a UDF column. */
  def transformColumn(t: Transformation)(c: Column): Column = {
    val f = udf { (s: String) => if (s == null) None else t(s) }
    f(c)
  }

  /** Transforms `srcVal` under every transformation in `ts` (tagged with the
    * 0-based rule index) — the unioned "transformed source" relation.
    */
  def transformed(source: DataFrame, srcVal: String, ts: Seq[Transformation]): DataFrame = {
    require(ts.nonEmpty, "no transformations to apply")
    ts.zipWithIndex
      .map { case (t, i) =>
        source
          .withColumn("rule", lit(i))
          .withColumn("join_key", transformColumn(t)(col(srcVal)))
          .where(col("join_key").isNotNull)
      }
      .reduce(_ unionByName _)
  }

  /** Full pipeline over two single-column relations.
    *
    * @param source DataFrame with (`src_id` long, `src_val` string)
    * @param target DataFrame with (`tgt_id` long, `tgt_val` string)
    * @return the equi-joined DataFrame (src_id, src_val, rule, join_key,
    *         tgt_id, tgt_val) plus the discovery artifacts
    */
  def join(
      spark: SparkSession,
      source: DataFrame,
      target: DataFrame,
      cfg: TransformJoinConfig = TransformJoinConfig(),
  ): TransformJoinResult = {
    val src = source.cache()
    val tgt = target.cache()

    // 1. Candidate joinable row pairs (distributed Algorithm 1).
    val pairsDf = SparkRowMatcher.matchPairs(src, tgt, cfg = cfg.matching).cache()
    val nPairs  = pairsDf.count()

    // 2. Sample pairs and materialize their strings for discovery. The order
    // is a seeded hash of the pair's ids (ties broken by the ids), so the
    // sample does not depend on partitioning.
    val sampled = pairsDf
      .join(src, "src_id")
      .join(tgt, "tgt_id")
      .orderBy(xxhash64(col("src_id"), col("tgt_id"), lit(cfg.sampleSeed)), col("src_id"), col("tgt_id"))
      .limit(cfg.samplePairs)
      .select(col("src_val"), col("tgt_val"))
      .collect()
      .map(r => (r.getString(0), r.getString(1)))
      .toVector

    // 3. Discover the covering transformation set.
    val disc = Discovery.discover(sampled, cfg.discovery)
    val ts   = disc.transformations

    // 4. Apply each transformation as a UDF and equi-join on the result.
    val joined =
      if (ts.isEmpty) {
        // No transformation found: the equi-join on the raw column (empty
        // result when formats differ, which is the honest answer).
        src.withColumn("rule", lit(-1))
          .withColumn("join_key", col("src_val"))
          .join(tgt, col("join_key") === col("tgt_val"))
      } else {
        transformed(src, "src_val", ts)
          .join(tgt, col("join_key") === col("tgt_val"))
      }
    pairsDf.unpersist(blocking = false)
    TransformJoinResult(joined, ts, nPairs, disc)
  }
}

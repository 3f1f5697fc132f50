package repro.sparkjoin

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult}
import repro.core.{Discovery, Transformation}
import repro.matching.RowMatcher

/** The end-to-end distributed transformation join (paper §4.2, and the
  * reproduction target: "a distributed DataFrame UDF that generates candidate
  * transformations and performs join on transformed columns").
  *
  * Pipeline: distributed n-gram row matching → sample of candidate pairs →
  * local transformation discovery (§4.1) → one UDF over the source column
  * returns each row's distinct keys under the cover set → a plain Catalyst
  * equi-join of the exploded keys against the target column ([[joinOn]]).
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

  /** The transform-join of `source` (`src_id`, `src_val`) and `target`
    * (`tgt_id`, `tgt_val`) under the cover set `ts`, in one pass over the
    * source: one UDF returns each distinct key of `src_val`, tagged with the
    * index of the first rule in `ts` that produces it, and the exploded keys
    * are equi-joined with `tgt_val`. A rule undefined on a value adds no key
    * and a null value has none. With no rules the key is `src_val` itself,
    * tagged -1: the equi-join on the raw column (empty when formats differ,
    * which is the honest answer).
    *
    * @return (src_id, src_val, rule, join_key, tgt_id, tgt_val), one row per
    *         joined (src_id, tgt_id) when both ids are keys
    */
  def joinOn(source: DataFrame, target: DataFrame, ts: Seq[Transformation]): DataFrame = {
    val rules = ts.toVector
    val keys = udf { (s: String) =>
      if (s == null) Seq.empty[(Int, String)]
      else if (rules.isEmpty) Seq((-1, s))
      else rules.indices.flatMap(i => rules(i)(s).map((i, _))).distinctBy(_._2)
    }
    source
      .select(col("*"), inline(keys(col("src_val"))).as(Seq("rule", "join_key")))
      .join(target, col("join_key") === col("tgt_val"))
  }

  /** Full pipeline over two single-column relations. Neither input is
    * cached (a caller that reuses them caches them itself); the matched pairs
    * are cached while they are counted and sampled, then released.
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
    // 1. Candidate joinable row pairs (distributed Algorithm 1).
    val pairsDf = SparkRowMatcher.matchPairs(source, target, cfg = cfg.matching).cache()
    val nPairs  = pairsDf.count()

    // 2. Sample pairs and materialize their strings for discovery. The order
    // is a seeded hash of the pair's ids (ties broken by the ids), so the
    // sample does not depend on partitioning.
    val sampled = pairsDf
      .join(source, "src_id")
      .join(target, "tgt_id")
      .orderBy(xxhash64(col("src_id"), col("tgt_id"), lit(cfg.sampleSeed)), col("src_id"), col("tgt_id"))
      .limit(cfg.samplePairs)
      .select(col("src_val"), col("tgt_val"))
      .collect()
      .map(r => (r.getString(0), r.getString(1)))
      .toVector

    // 3. Discover the covering transformation set.
    val disc = Discovery.discover(sampled, cfg.discovery)
    val ts   = disc.transformations

    // 4. One pass of the cover set over the source, equi-joined with target.
    val joined = joinOn(source, target, ts)
    pairsDf.unpersist(blocking = false)
    TransformJoinResult(joined, ts, nPairs, disc)
  }
}

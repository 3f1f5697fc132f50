package repro.sparkjoin

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Transformation
import repro.core.{Literal, Split, SplitSubstr}
import repro.data.WebBenchSim
import TransformJoin._

/** End-to-end distributed transformation join, oracle-checked. */
class TransformJoinSpec extends SparkSpec {

  private lazy val ds = WebBenchSim.dataset(WebBenchSim.specs.head) // staff names

  // The n-gram matching is noisy (~0.8 precision on this table), so the
  // support threshold — the paper's noise remedy (§6.4) — keeps coincidental
  // rules learned from false pairs out of the cover set.
  private val joinCfg = TransformJoinConfig(
    discovery = repro.core.Discovery.DiscoveryConfig(supportThreshold = 0.05),
  )

  test("end-to-end join recovers the gold pairs on a web table") {
    val res = TransformJoin.join(spark, ds.sourceDf(spark), ds.targetDf(spark), joinCfg)
    assert(res.transformations.nonEmpty)
    val joined = res.joined
      .select("src_id", "tgt_id")
      .collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
      .toSet
    val hit = ds.goldPairs.count(joined.contains)
    assert(hit >= (ds.goldPairs.size * 0.9).toInt, s"hit=$hit of ${ds.goldPairs.size}")
    // Precision: the transformed join should not flood with false pairs
    // (duplicate target strings still legitimately join many-to-many).
    assert(joined.size <= ds.goldPairs.size * 2, s"joined=${joined.size}")
  }

  test("discovery coverage on the matched (noisy) sample is substantial") {
    val res = TransformJoin.join(spark, ds.sourceDf(spark), ds.targetDf(spark), joinCfg)
    // Coverage here is over the noisy matched pairs — false pairs are
    // uncoverable by construction, so this tracks matching precision.
    assert(res.discovery.setCoverage > 0.6, s"cov=${res.discovery.setCoverage}")
    assert(res.matchedPairs > 0)
  }

  test("the equi-join over transformed columns matches DuckDB (oracle)") {
    val golds = ds.goldTransformations
    val src   = ds.sourceDf(spark)
    val tgt   = ds.targetDf(spark)
    val trans = TransformJoin.transformed(src, "src_val", golds)
    val joined = trans
      .join(tgt, col("join_key") === col("tgt_val"))
      .select("src_id", "src_val", "rule", "join_key", "tgt_id", "tgt_val")
    Oracle.assertEquivalent(
      joined,
      """SELECT s.src_id, s.src_val, s.rule, s.join_key, t.tgt_id, t.tgt_val
        |FROM transformed s JOIN target t ON s.join_key = t.tgt_val""".stripMargin,
      "transformed" -> trans.select("src_id", "src_val", "rule", "join_key"),
      "target"      -> tgt,
    )
  }

  test("transformColumn applies a transformation as a UDF") {
    import spark.implicits._
    val t  = Transformation(SplitSubstr(' ', 2, 0, 1), Literal(" "), Split(',', 1))
    val df = Seq("bowling, michael", "rafiei, davood").toDF("v")
    val out = df.select(transformColumn(t)(col("v")) as "k").as[String].collect().toSeq
    assert(out == Seq("m bowling", "d rafiei"))
  }

  test("transformColumn yields null where the transformation is undefined") {
    import spark.implicits._
    val t   = Transformation(Split(',', 2))
    val df  = Seq("a,b", "nocomma", null.asInstanceOf[String]).toDF("v")
    val out = df.select(transformColumn(t)(col("v")) as "k").collect().map(_.getString(0))
    assert(out.toSeq == Seq("b", null, null))
  }

  test("transformed() unions one frame per rule with rule tags") {
    val golds = ds.goldTransformations
    val out   = TransformJoin.transformed(ds.sourceDf(spark), "src_val", golds)
    val rules = out.select("rule").distinct().collect().map(_.getInt(0)).toSet
    assert(rules == golds.indices.toSet)
    // Every source row appears under every rule that is defined on it.
    val n = out.count()
    assert(n >= ds.source.size) // rule 0 alone is defined on all rows here
  }

  test("join falls back to raw equi-join when nothing is discovered") {
    import spark.implicits._
    // Disjoint alphabets: no n-gram match, no transformation.
    val src = (0L to 3L).map(i => (i, s"aaaa${i}bbbb")).toDF("src_id", "src_val")
    val tgt = (0L to 3L).map(i => (i, s"zzzz${i}yyyy")).toDF("tgt_id", "tgt_val")
    val res = TransformJoin.join(spark, src, tgt)
    assert(res.transformations.isEmpty)
    assert(res.joined.count() == 0)
  }

  test("the discovery sample does not depend on the shuffle partition count") {
    // Adaptive execution would coalesce the small shuffles into one
    // partition; it is switched off so each run really has n partitions.
    val keys = Seq("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    val prev = keys.map(spark.conf.get)
    val cfg  = joinCfg.copy(samplePairs = 30)
    val runs =
      try {
        spark.conf.set(keys(1), false)
        Seq(1, 8, 64).map { n =>
          spark.conf.set(keys(0), n.toLong)
          TransformJoin.join(spark, ds.sourceDf(spark), ds.targetDf(spark), cfg)
        }
      } finally keys.zip(prev).foreach { case (k, v) => spark.conf.set(k, v) }
    assert(runs.head.matchedPairs > cfg.samplePairs, "the sample must be a strict subset")
    for (r <- runs.tail) {
      assert(r.discovery.nRows == cfg.samplePairs)
      assert(r.transformations == runs.head.transformations)
      assert(r.discovery.stats == runs.head.discovery.stats)
    }
  }
}

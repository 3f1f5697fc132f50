package repro.sparkjoin

import org.apache.spark.storage.StorageLevel
import repro.{Oracle, SparkSpec}
import repro.core.{Literal, Split, SplitSubstr, Substr, Transformation}
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
    val rows = res.joined
      .select("src_id", "tgt_id")
      .collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
    val joined = rows.toSet
    assert(rows.length == joined.size, "one row per joined (src_id, tgt_id)")
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
    import spark.implicits._
    val golds = ds.goldTransformations
    val src   = ds.sourceDf(spark)
    val tgt   = ds.targetDf(spark)
    // Every (row, rule, key) evaluated in plain Scala; DuckDB names each
    // distinct key of a row by the first rule that produces it.
    val keys = for {
      (s, i)  <- ds.source.zipWithIndex
      (t, k)  <- golds.zipWithIndex
      joinKey <- t(s)
    } yield (i.toLong, k, joinKey)
    Oracle.assertEquivalent(
      joinOn(src, tgt, golds),
      """SELECT s.src_id, s.src_val, k.rule, k.join_key, t.tgt_id, t.tgt_val
        |FROM (SELECT src_id, join_key, min(CAST(rule AS INTEGER)) AS rule
        |      FROM keys GROUP BY src_id, join_key) k
        |JOIN src s ON s.src_id = k.src_id
        |JOIN tgt t ON k.join_key = t.tgt_val""".stripMargin,
      "keys" -> keys.toDF("src_id", "rule", "join_key"),
      "src"  -> src,
      "tgt"  -> tgt,
    )
  }

  /** (src_id, rule, join_key, tgt_id) rows of `joinOn`, sorted. */
  private def keyRows(src: Seq[(Long, String)], tgt: Seq[(Long, String)], ts: Seq[Transformation]) = {
    import spark.implicits._
    joinOn(src.toDF("src_id", "src_val"), tgt.toDF("tgt_id", "tgt_val"), ts)
      .select("src_id", "rule", "join_key", "tgt_id")
      .as[(Long, Int, String, Long)]
      .collect()
      .toVector
      .sorted
  }

  test("a rule undefined on a row adds no key") {
    val ts  = Seq(Transformation(Split(',', 2)), Transformation(Substr(0, 1)))
    val tgt = Seq(0L -> "b", 1L -> "a", 2L -> "n", 3L -> "nocomma")
    val out = keyRows(Seq(0L -> "a,b", 1L -> "nocomma"), tgt, ts)
    assert(out == Vector((0L, 0, "b", 0L), (0L, 1, "a", 1L), (1L, 1, "n", 2L)))
  }

  test("a null source value joins nothing") {
    val src = Seq(0L -> null.asInstanceOf[String], 1L -> "x")
    val tgt = Seq(0L -> null.asInstanceOf[String], 1L -> "x")
    assert(keyRows(src, tgt, Nil) == Vector((1L, -1, "x", 1L)))
    assert(keyRows(src, tgt, Seq(Transformation(Substr(0, 1)))) == Vector((1L, 0, "x", 1L)))
  }

  test("one row per pair; the first rule that produces the key names it") {
    // Rules 0 and 1 both give "bowling"; rule 2 gives "m bowling".
    val ts = Seq(
      Transformation(Split(',', 1)),
      Transformation(Substr(0, 7)),
      Transformation(SplitSubstr(' ', 2, 0, 1), Literal(" "), Split(',', 1)),
    )
    val tgt = Seq(0L -> "bowling", 1L -> "m bowling", 2L -> "bowling")
    val out = keyRows(Seq(0L -> "bowling, michael"), tgt, ts)
    assert(out == Vector((0L, 0, "bowling", 0L), (0L, 0, "bowling", 2L), (0L, 2, "m bowling", 1L)))
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

  test("join leaves its inputs uncached and no persisted data behind") {
    val src    = ds.sourceDf(spark)
    val tgt    = ds.targetDf(spark)
    val before = spark.sparkContext.getPersistentRDDs.size
    assert(TransformJoin.join(spark, src, tgt, joinCfg).joined.count() > 0)
    assert(src.storageLevel == StorageLevel.NONE && tgt.storageLevel == StorageLevel.NONE)
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  test("the discovery sample does not depend on the shuffle partition count") {
    val cfg  = joinCfg.copy(samplePairs = 30)
    val runs = Seq(1, 8, 64).map { n =>
      withShufflePartitions(n)(TransformJoin.join(spark, ds.sourceDf(spark), ds.targetDf(spark), cfg))
    }
    assert(runs.head.matchedPairs > cfg.samplePairs, "the sample must be a strict subset")
    for (r <- runs.tail) {
      assert(r.discovery.nRows == cfg.samplePairs)
      assert(r.transformations == runs.head.transformations)
      assert(r.discovery.stats == runs.head.discovery.stats)
    }
  }
}

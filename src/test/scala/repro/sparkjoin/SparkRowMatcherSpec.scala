package repro.sparkjoin

import repro.SparkSpec
import repro.data.{SynthJoin, WebBenchSim}
import repro.matching.{MatchMetrics, RowMatcher}

/** Parity of the distributed row matcher with the local Algorithm 1. */
class SparkRowMatcherSpec extends SparkSpec {

  private def parity(src: IndexedSeq[String], tgt: IndexedSeq[String]): Unit = {
    val local = RowMatcher.matchPairs(src, tgt)
    val dist  = SparkRowMatcher.matchPairsLocal(spark, src, tgt)
    assert(dist == local, s"spark=${dist.size} local=${local.size}")
  }

  test("parity with local matcher on Figure-1-style names") {
    val names = Vector(
      "rafiei, davood", "nascimento, mario", "gingrich, douglas",
      "prus-czarnecki, andrzej", "bowling, michael", "gosgnach, simon",
    )
    val abbrevs = Vector(
      "d rafiei", "m nascimento", "d gingrich",
      "a prus-czarnecki", "m bowling", "s gosgnach",
    )
    parity(names, abbrevs)
  }

  test("parity with local matcher on a synthetic table") {
    val ds = SynthJoin.synth(40, seed = 21L)
    parity(ds.source, ds.target)
  }

  test("parity with local matcher on a web benchmark table") {
    val ds = WebBenchSim.dataset(WebBenchSim.specs(6)) // phones
    parity(ds.source, ds.target)
  }

  test("parity on an Rscore tie: the smaller gram wins") {
    // Row 0's grams "aaaa" (3 source rows × 11 target rows) and "bbbb"
    // (11 × 3) have equal Rscore 1/33, so "aaaa" is its representative.
    val src = Vector("aaaa-bbbb", "aaaa", "aaaa") ++ Vector.fill(10)("bbbb")
    val tgt = Vector.fill(11)("aaaa") ++ Vector.fill(3)("bbbb")
    val row0 = RowMatcher.matchPairs(src, tgt).collect { case (0, j) => j }
    assert(row0 == (0 to 10).toSet)
    parity(src, tgt)
  }

  test("1, 8 and 64 shuffle partitions give the same pairs") {
    val ds   = WebBenchSim.dataset(WebBenchSim.specs.head)
    val runs = Seq(1, 8, 64).map { n =>
      withShufflePartitions(n)(SparkRowMatcher.matchPairsLocal(spark, ds.source, ds.target))
    }
    assert(runs.head.nonEmpty)
    assert(runs.forall(_ == runs.head))
  }

  test("matching leaves no persisted data behind") {
    val ds     = WebBenchSim.dataset(WebBenchSim.specs.head)
    val before = spark.sparkContext.getPersistentRDDs.size
    assert(SparkRowMatcher.matchPairs(ds.sourceDf(spark), ds.targetDf(spark)).count() > 0)
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  test("distributed matching quality on a web table") {
    val ds    = WebBenchSim.dataset(WebBenchSim.specs.head)
    val pairs = SparkRowMatcher.matchPairsLocal(spark, ds.source, ds.target)
    val prf   = MatchMetrics.score(pairs, ds.goldPairs)
    assert(prf.recall > 0.7, s"recall=${prf.recall}")
  }

  test("empty columns produce no pairs") {
    assert(SparkRowMatcher.matchPairsLocal(spark, Vector.empty, Vector.empty).isEmpty)
    assert(SparkRowMatcher.matchPairsLocal(spark, Vector("abcdef"), Vector.empty).isEmpty)
  }

  test("result schema is (src_id, tgt_id)") {
    import spark.implicits._
    val src = Vector((0L, "rafiei, davood")).toDF("src_id", "src_val")
    val tgt = Vector((0L, "d rafiei")).toDF("tgt_id", "tgt_val")
    val out = SparkRowMatcher.matchPairs(src, tgt)
    assert(out.columns.toSeq == Seq("src_id", "tgt_id"))
  }
}

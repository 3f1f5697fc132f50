package repro.sparkjoin

import repro.{PropHelper, SparkSpec}
import repro.core.{Discovery, DiscoverySpec}
import repro.data.SynthJoin

/** Parity of the Spark-parallelized discovery with the local algorithm. */
class SparkDiscoverySpec extends SparkSpec with PropHelper {

  private val pairs = Vector(
    ("rafiei, davood", "d rafiei"),
    ("bowling, michael", "m bowling"),
    ("gosgnach, simon", "s gosgnach"),
    ("walker, james", "j walker"),
    ("nascimento, mario", "mario"),
    ("gingrich, douglas", "douglas"),
  )

  test("top transformation and coverage match the local path") {
    val local = Discovery.discover(pairs)
    val dist  = SparkDiscovery.discover(spark, pairs)
    assert(dist.top.map(_._1) == local.top.map(_._1))
    assert(dist.top.map(_._2) == local.top.map(_._2))
    assert(dist.topCoverage == local.topCoverage)
  }

  test("cover set matches the local path") {
    val local = Discovery.discover(pairs)
    val dist  = SparkDiscovery.discover(spark, pairs)
    assert(dist.transformations == local.transformations)
    assert(dist.setCoverage == local.setCoverage)
  }

  test("generation counters match the local path (dedup is global)") {
    val local = Discovery.discover(pairs)
    val dist  = SparkDiscovery.discover(spark, pairs)
    assert(dist.stats.generated == local.stats.generated)
    assert(dist.stats.toTry == local.stats.toTry)
  }

  test("cache pruning remains effective under partitioning") {
    val ds   = SynthJoin.synth(30, seed = 4L)
    val dist = SparkDiscovery.discover(spark, ds.goldPairStrings)
    assert(dist.stats.cacheHitRatio > 0.3, s"hitRatio=${dist.stats.cacheHitRatio}")
  }

  test("full coverage on synthetic gold pairs") {
    val ds   = SynthJoin.synth(30, seed = 4L)
    val dist = SparkDiscovery.discover(spark, ds.goldPairStrings)
    assert(dist.setCoverage == 1.0)
  }

  test("empty input") {
    val res = SparkDiscovery.discover(spark, Seq.empty)
    assert(res.nRows == 0 && res.top.isEmpty && res.coverSet.isEmpty)
  }

  test("single-slice and many-slice runs agree") {
    val local = Discovery.discover(pairs)
    val a     = SparkDiscovery.discover(spark, pairs, numSlices = 1)
    val b     = SparkDiscovery.discover(spark, pairs, numSlices = 8)
    assert(a.transformations == b.transformations)
    // All four Table 3 counters, filter hits and misses included, are the
    // same for every partitioning and for the local path.
    assert(a.stats == local.stats)
    assert(b.stats == local.stats)
  }

  test("random inputs: every slice count agrees with local discovery (property)") {
    forAllSampled(DiscoverySpec.smallInputs, samples = 10) { pairs =>
      val local = Discovery.discover(pairs)
      for (slices <- Seq(1, 3, 8)) {
        val dist = SparkDiscovery.discover(spark, pairs, numSlices = slices)
        assert(dist.transformations == local.transformations, s"slices=$slices")
        assert(dist.top == local.top, s"slices=$slices")
        assert(dist.stats == local.stats, s"slices=$slices")
      }
    }
  }
}

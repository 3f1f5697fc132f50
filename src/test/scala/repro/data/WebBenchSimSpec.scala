package repro.data

import repro.SparkSpec
import repro.core.Discovery
import repro.core.Discovery.DiscoveryConfig

/** The simulated web-table benchmark: 31 pairs, 17 topics (DESIGN.md §3). */
class WebBenchSimSpec extends SparkSpec {

  test("31 table pairs over 17 topics") {
    assert(WebBenchSim.specs.size == 31)
    assert(WebBenchSim.specs.map(_.topic).distinct.size == 17)
  }

  test("average rows per table is close to the paper's 92.13") {
    val avg = WebBenchSim.specs.map(_.rows).sum.toDouble / WebBenchSim.specs.size
    assert(math.abs(avg - 92.13) < 5.0, s"avg=$avg")
  }

  test("average join-entry length is in the paper's ballpark (~31 chars)") {
    val all = WebBenchSim.all()
    val avg = all.map(_.avgSourceLen).sum / all.size
    assert(avg > 10 && avg < 45, s"avg=$avg")
  }

  // One test per simulated table: every gold pair is produced by a gold
  // transformation, rows are distinct, and the matching is perfect.
  for (spec <- WebBenchSim.specs) {
    test(s"${spec.name}: generation invariants hold") {
      val ds = WebBenchSim.dataset(spec)
      assert(ds.source.size == spec.rows)
      assert(ds.source.distinct.size == ds.source.size)
      assert(ds.goldPairs.size == spec.rows)
      for ((s, g) <- ds.goldPairStrings)
        assert(ds.goldTransformations.exists(_.covers(s, g)), s"($s, $g) uncovered")
    }
  }

  test("dominant rule share is ~55-60% (paper Top Cov. 0.58)") {
    val shares = WebBenchSim.all().map { ds =>
      val counts = ds.goldTransformations.map(t =>
        ds.goldPairStrings.count { case (s, g) => t.covers(s, g) })
      counts.max.toDouble / ds.source.size
    }
    val mean = shares.sum / shares.size
    assert(mean > 0.5 && mean < 0.7, s"mean dominant share=$mean")
  }

  test("discovery achieves full coverage on a sample table (golden matching)") {
    val ds  = WebBenchSim.dataset(WebBenchSim.specs.head)
    val res = Discovery.discover(ds.goldPairStrings, DiscoveryConfig())
    assert(res.setCoverage == 1.0, s"cover=${res.transformations.map(_.render)}")
  }

  test("web27-coordinates: the cover over every candidate reaches full coverage") {
    // Its candidates are dominated by variants of one rule; the second rule,
    // <Split(' ',1)>, has lower support but is needed for full coverage.
    val ds  = WebBenchSim.dataset(WebBenchSim.specs.find(_.name == "web27-coordinates").get)
    val res = Discovery.discover(ds.goldPairStrings)
    assert(res.setCoverage == 1.0, s"cover=${res.transformations.map(_.render)}")
  }

  test("deterministic in the seed") {
    val a = WebBenchSim.dataset(WebBenchSim.specs(3), seed = 5L)
    val b = WebBenchSim.dataset(WebBenchSim.specs(3), seed = 5L)
    assert(a.source == b.source && a.target == b.target)
  }
}

package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Discovery.PruningStats
import repro.experiments.Experiments._

/** The Table 1–3 harness at a small scale; starts no Spark. */
class ExperimentsSpec extends AnyFunSuite {

  private lazy val sets = evalSets(Scale(synthSeeds = 1, openRows = 200))

  test("evalSets: the six §6.1 datasets in Table 1 order, each with its paper rows") {
    val names = sets.map(_.name)
    assert(names == Vector("Benchmark", "Open data", "Synth-50", "Synth-50L", "Synth-500", "Synth-500L"))
    for (n <- names) {
      assert(Tables.paperTable1.contains(n), n)
      for (m <- Seq(NGramMatching, GoldenMatching)) {
        assert(Tables.paperTable2.contains((m.label, n)), s"${m.label}/$n")
        assert(Tables.paperTable3.contains((m.label, n)), s"${m.label}/$n")
      }
    }
    assert(sets.find(_.name == "Open data").get.tables.map(_.source.size) == Vector(200))
    assert(sets.filter(_.name.startsWith("Synth-")).forall(_.tables.size == 1))
  }

  test("mean of a single run is that run under the set's name") {
    val r = DatasetRun(
      dataset = "Synth-50",
      matching = GoldenMatching.label,
      ours = MethodOut(1.0 / 3, 0.1 + 0.2, 3.0, 0.7, budgetExceeded = false),
      autojoin = Some(MethodOut(2.0 / 7, 0.3, 1.0, 6.01, budgetExceeded = true)),
      pruning = PruningStats(76_624L, 35_553L, 9_007_199L, 12_345L),
    )
    assert(mean(Seq(r), "Open data") == r.copy(dataset = "Open data"))
    assert(mean(Seq(r.copy(autojoin = None)), "x") == r.copy(dataset = "x", autojoin = None))
  }

  test("golden matching returns the gold pairs, sampled down to the cap") {
    for (set <- sets; ds <- set.tables) {
      val gold = ds.goldPairStrings
      if (gold.size <= set.sampleCap)
        assert(matched(ds, GoldenMatching, set.sampleCap) == gold, ds.name)
      val k       = math.min(7, gold.size)
      val sampled = matched(ds, GoldenMatching, k)
      assert(sampled.size == k, ds.name)
      assert(sampled.distinct.size == k && sampled.forall(gold.contains), ds.name)
    }
  }
}

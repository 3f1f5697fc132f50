package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.{Experiments, Tables}

/** Reproduces paper Table 1: n-gram row matching performance on all six
  * datasets. Prints measured | paper rows.
  */
class Table1Bench extends AnyFunSuite {

  test("Table 1: row matching performance") {
    val rows = Experiments.table1(BenchRuns.scale)
    println(Tables.renderTable1(rows))

    val byName = rows.map(r => r.dataset -> r).toMap

    // Shape assertions (paper Table 1):
    // high precision and recall on benchmark and synthetic data ...
    for (d <- Seq("Benchmark", "Synth-50", "Synth-50L", "Synth-500", "Synth-500L")) {
      assert(byName(d).prf.recall >= 0.75, s"$d recall=${byName(d).prf.recall}")
      assert(byName(d).prf.f1 >= 0.6, s"$d f1=${byName(d).prf.f1}")
    }
    for (d <- Seq("Synth-50", "Synth-50L", "Synth-500", "Synth-500L"))
      assert(byName(d).prf.precision >= 0.7, s"$d precision=${byName(d).prf.precision}")

    // ... but Open data floods: recall stays high while precision collapses
    // (paper: P=0.01, R=0.92).
    val open = byName("Open data")
    assert(open.prf.recall >= 0.75, s"open recall=${open.prf.recall}")
    assert(open.prf.precision <= 0.2, s"open precision=${open.prf.precision}")
    assert(open.nPairs >= open.nRows * 5, s"open pairs=${open.nPairs}")

    // Longer rows help the matching (paper: Synth-50L F1 0.98 vs 0.94).
    assert(byName("Synth-50L").prf.f1 >= byName("Synth-50").prf.f1 - 0.05)
  }
}

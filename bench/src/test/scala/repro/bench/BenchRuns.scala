package repro.bench

import repro.experiments.Experiments
import repro.experiments.Experiments.{DatasetRun, Scale}

/** Shared, lazily-computed experiment runs: Tables 2 and 3 are two views of
  * the same discovery runs, so the benches compute each (dataset, matching)
  * cell exactly once per JVM.
  */
object BenchRuns {
  lazy val scale: Scale = Scale()

  lazy val cells: Vector[DatasetRun] = {
    val t0 = System.nanoTime()
    val out = Experiments.cells(scale)
    Console.err.println(f"[BenchRuns] all cells computed in ${(System.nanoTime() - t0) / 1e9}%.1f s")
    out
  }

  def cell(matching: String, dataset: String): DatasetRun =
    cells.find(r => r.matching == matching && r.dataset == dataset).get
}

package repro.jobs

import repro.experiments.{Experiments, Tables}

/** Entrypoint reproducing Table 2 (coverage & runtime, ours vs Auto-Join,
  * under n-gram and golden row matching). Runs locally; no Spark.
  *
  * Usage: spark-submit --class repro.jobs.Table2Job repro.jar
  * Env knobs: REPRO_SYNTH_SEEDS, REPRO_OPEN_ROWS, REPRO_OPEN_SAMPLE,
  * REPRO_AUTOJOIN_BUDGET_MS, REPRO_RUN_AUTOJOIN=0 to skip the baseline.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val scale = Experiments.Scale()
    val cells = Vector(Experiments.NGramMatching, Experiments.GoldenMatching)
      .flatMap(m => Experiments.allCells(scale, m))
    println(Tables.renderTable2(cells))
  }
}

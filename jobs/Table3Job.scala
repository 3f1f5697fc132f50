package repro.jobs

import repro.experiments.{Experiments, Tables}

/** Entrypoint reproducing Table 3 (pruning performance: generated vs to-try
  * transformations, duplicate ratio, cache hit ratio). Runs locally; no Spark.
  *
  * Usage: spark-submit --class repro.jobs.Table3Job repro.jar
  * Auto-Join is skipped — Table 3 only measures our pruning counters.
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val scale = Experiments.Scale(runAutoJoin = false)
    println(Tables.renderTable3(Experiments.cells(scale)))
  }
}

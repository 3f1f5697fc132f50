package repro.jobs

import repro.experiments.{Experiments, Tables}

/** Entrypoint reproducing Table 1 (row matching performance on the six
  * evaluation sets). Runs locally; no Spark.
  *
  * Usage: spark-submit --class repro.jobs.Table1Job repro.jar
  * Scale knobs via env: REPRO_SYNTH_SEEDS, REPRO_OPEN_ROWS.
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val scale = Experiments.Scale()
    println(Tables.renderTable1(Experiments.table1(scale)))
  }
}

package repro.sparkjoin

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult}

/** [[repro.core.Discovery.discover]] with its coverage-count step on Spark:
  * the distinct candidates and the input rows are broadcast, the candidate
  * indices are split into `numSlices` contiguous slices (the default
  * parallelism when 0), and each slice runs
  * [[Coverage.CandidateFilter.counts]] over its indices. A unit filter's
  * verdict on a (candidate, row) depends on nothing else, so counts and
  * counters do not depend on the partitioning; everything else is the local
  * code.
  */
object SparkDiscovery {

  def discover(
      spark: SparkSession,
      pairs: Seq[(String, String)],
      cfg: DiscoveryConfig = DiscoveryConfig(),
      numSlices: Int = 0,
  ): DiscoveryResult = {
    val sc     = spark.sparkContext
    val slices = if (numSlices > 0) numSlices else sc.defaultParallelism
    Discovery.discover(pairs, cfg, filter => {
      val n  = filter.candidates.size
      val bc = sc.broadcast((filter.candidates, filter.rows))
      val parts =
        try
          sc.parallelize(0 until slices, slices)
            .map { s =>
              val (cands, rows) = bc.value
              new Coverage.CandidateFilter(cands, rows)
                .counts((s.toLong * n / slices).toInt, ((s + 1).toLong * n / slices).toInt)
            }
            .collect()
        finally bc.destroy()
      (parts.flatMap(_._1), Coverage.CacheStats(parts.map(_._2.hits).sum, parts.map(_._2.misses).sum))
    })
  }
}

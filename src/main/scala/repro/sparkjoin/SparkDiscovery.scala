package repro.sparkjoin

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult}

/** [[repro.core.Discovery.discover]] with its coverage-count step on Spark:
  * the distinct transformations are split into `numSlices` partitions (the
  * default parallelism when 0), and each partition runs [[Coverage.counts]]
  * over the broadcast input rows. A unit filter's verdict on a
  * (transformation, row) depends on nothing else, so counts and counters do
  * not depend on the partitioning; everything else is the local code.
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
    Discovery.discover(pairs, cfg, (distinct, rows) => {
      val bcRows = sc.broadcast(rows)
      val parts =
        try
          sc.parallelize(distinct, slices)
            .mapPartitions(ts => Iterator(Coverage.counts(ts.toVector, bcRows.value)))
            .collect()
        finally bcRows.destroy()
      (parts.flatMap(_._1), Coverage.CacheStats(parts.map(_._2.hits).sum, parts.map(_._2.misses).sum))
    })
  }
}

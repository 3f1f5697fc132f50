package repro.sparkjoin

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult, PruningStats}

/** Distributed transformation discovery.
  *
  * The same algorithm as [[repro.core.Discovery.discover]], parallelized for
  * inputs whose candidate space reaches into the millions (paper Table 3):
  *
  *   - *generation* fans out over row pairs (`mapPartitions`), with a
  *     per-partition hash set giving partial duplicate removal before the
  *     shuffle; global dedup is an RDD `distinct` on the structural key;
  *   - *coverage* fans out over transformations: each partition runs
  *     [[Coverage.counts]] over the broadcast input rows with its own unit
  *     filter; a filter's verdict on a (transformation, row) depends on
  *     nothing else, so the counters do not depend on the partitioning;
  *   - the top/cover tail ([[repro.core.Discovery.finish]]) is shared with
  *     the local path.
  *
  * Counters (generated, cache hits/misses) flow through Spark accumulators.
  */
object SparkDiscovery {

  def discover(
      spark: SparkSession,
      pairs: Seq[(String, String)],
      cfg: DiscoveryConfig = DiscoveryConfig(),
      numSlices: Int = 0,
  ): DiscoveryResult = {
    val t0 = System.nanoTime()
    if (pairs.isEmpty)
      return DiscoveryResult(0, None, Vector.empty, PruningStats(0, 0, 0, 0), 0)

    val sc     = spark.sparkContext
    val slices = if (numSlices > 0) numSlices else sc.defaultParallelism
    val bcRows = sc.broadcast(pairs.toVector)
    val genCfg = cfg.gen

    val generatedAcc = sc.longAccumulator("generatedTransformations")
    val hitsAcc      = sc.longAccumulator("cacheHits")
    val missesAcc    = sc.longAccumulator("cacheMisses")

    // Stage 1: per-row candidate generation with partition-local dedup.
    val distinctRdd = sc
      .parallelize(pairs.toVector, math.min(slices, math.max(1, pairs.size)))
      .mapPartitions { it =>
        val seen = scala.collection.mutable.HashSet.empty[Transformation]
        var gen  = 0L
        for ((s, t) <- it)
          gen += TransformationGen.forRow(s, t, genCfg)(tr => { seen.add(tr); () }).generated
        generatedAcc.add(gen)
        seen.iterator
      }
      .distinct()
      .cache()
    val toTry = distinctRdd.count()

    // Stage 2: coverage counts, partitioned over transformations.
    val ranked = distinctRdd
      .mapPartitions { it =>
        val ts        = it.toVector
        val (cov, cs) = Coverage.counts(ts, Coverage.rowStates(bcRows.value))
        hitsAcc.add(cs.hits); missesAcc.add(cs.misses)
        ts.iterator.zip(cov.iterator)
      }
      .filter { case (t, c) => c >= 1 && !t.isConstant }
      .collect()
      .toVector
    distinctRdd.unpersist(blocking = false)
    bcRows.destroy()

    val rows       = Coverage.rowStates(pairs)
    val cacheStats = Coverage.CacheStats(hitsAcc.value, missesAcc.value)
    Discovery.finish(
      pairs.size,
      ranked,
      cacheStats,
      rows,
      PruningStats(generatedAcc.value, toTry, cacheStats.hits, cacheStats.misses),
      cfg,
      t0,
    )
  }
}

package repro.core

import repro.core.TransformationGen.GenConfig

/** End-to-end transformation discovery (the paper's core algorithm, §4.1):
  * placeholders → skeletons → candidate generation (with hash-set dedup) →
  * coverage (with the non-covering-unit filter) → max-coverage transformation
  * and greedy minimal cover set.
  */
object Discovery {

  /** Full configuration of a discovery run. `supportThreshold` is a fraction
    * of the input rows (the paper uses 1% on Open data, 0 elsewhere);
    * `minSupportRows` is the absolute floor of §5.3 (a transformation needs
    * at least two supporting rows to be distinguishable from a literal).
    */
  final case class DiscoveryConfig(
      gen: GenConfig = GenConfig(),
      supportThreshold: Double = 0.0,
      minSupportRows: Int = 2,
  ) extends Serializable

  /** The pruning counters reported in the paper's Table 3, plus the product
    * elements that generation's caps cut (`truncated`, not in the paper).
    */
  final case class PruningStats(
      generated: Long,
      toTry: Long,
      cacheHits: Long,
      cacheMisses: Long,
      truncated: Long = 0L,
  ) {
    def duplicates: Long       = generated - toTry
    def duplicateRatio: Double = if (generated == 0) 0.0 else duplicates.toDouble / generated
    def cacheHitRatio: Double =
      if (cacheHits + cacheMisses == 0) 0.0 else cacheHits.toDouble / (cacheHits + cacheMisses)
  }

  /** Result of a discovery run over `nRows` input pairs. Coverages are
    * fractions of the input pairs; `coverSet` is the greedy minimal cover in
    * selection order.
    */
  final case class DiscoveryResult(
      nRows: Int,
      top: Option[(Transformation, Int)],
      coverSet: Vector[CoverSet.Chosen],
      stats: PruningStats,
      elapsedMs: Long,
  ) {
    def topCoverage: Double = top.fold(0.0)(_._2.toDouble / math.max(1, nRows))
    def setCoverage: Double =
      CoverSet.unionCoverage(coverSet.map(_.covered), nRows).toDouble / math.max(1, nRows)
    def transformations: Vector[Transformation] = coverSet.map(_.t)
  }

  /** Runs discovery locally over explicit (source, target) pairs. */
  def discover(
      pairs: Seq[(String, String)],
      cfg: DiscoveryConfig = DiscoveryConfig(),
  ): DiscoveryResult = discover(pairs, cfg, _.counts())

  /** Discovery with the coverage-count step supplied by the caller: `count`
    * must return, for every distinct candidate of the filter in order, the
    * number of rows it covers, plus the filter counters
    * ([[Coverage.CandidateFilter.counts]] locally; the same per slice of the
    * candidates on Spark).
    */
  private[repro] def discover(
      pairs: Seq[(String, String)],
      cfg: DiscoveryConfig,
      count: Coverage.CandidateFilter => (Array[Int], Coverage.CacheStats),
  ): DiscoveryResult = {
    val t0           = System.nanoTime()
    val (cands, gen) = TransformationGen.generate(pairs, cfg.gen)
    val filter       = new Coverage.CandidateFilter(cands, Coverage.rowStates(pairs))
    val (counts, cs) = count(filter)
    // Pure-literal transformations are degenerate (they cover a row only by
    // matching its exact target, §5.3) and are excluded from both the top
    // answer and the cover set.
    val ranked = Array.range(0, cands.size).filter(i => counts(i) >= 1 && !cands.isConstant(i))
    select(
      pairs.size, ranked, counts(_), cands.transformation, filter.covered,
      PruningStats(gen.generated, cands.size.toLong, cs.hits, cs.misses, gen.truncated),
      cfg, t0,
    )
  }

  /** The tail of [[discover]]. `ranked` holds every non-constant
    * transformation with coverage count >= 1 (any order) and `rows` the input
    * rows: picks the top transformation and the greedy cover over every
    * candidate at or above the support floor. `cacheStats` is unused; the
    * counters arrive in `stats`.
    */
  private[repro] def finish(
      nRows: Int,
      ranked: Vector[(Transformation, Int)],
      cacheStats: Coverage.CacheStats,
      rows: Array[Coverage.RowState],
      stats: PruningStats,
      cfg: DiscoveryConfig,
      t0: Long,
  ): DiscoveryResult = {
    val filter = new Coverage.UnitFilter(rows)
    select(
      nRows, ranked.indices.toArray, ranked(_)._2, ranked(_)._1, i => filter.covered(ranked(i)._1),
      stats, cfg, t0,
    )
  }

  /** Picks the top transformation and the greedy cover among the candidates
    * `ranked`, given each one's row count, transformation and covered rows.
    * `CoverSet.order` ranks more rows first, so the top answer is among the
    * candidates at the largest count, and the greedy needs only those at or
    * above the support floor: only these are turned into transformations.
    */
  private def select(
      nRows: Int,
      ranked: Array[Int],
      count: Int => Int,
      transformation: Int => Transformation,
      covered: Int => Array[Int],
      stats: PruningStats,
      cfg: DiscoveryConfig,
      t0: Long,
  ): DiscoveryResult = {
    val supportFloor =
      math.max(cfg.minSupportRows, math.ceil(cfg.supportThreshold * nRows).toInt)
    val heap  = ranked.filter(count(_) >= math.max(1, supportFloor))
    val cover = CoverSet.greedyByIndex(heap.map(transformation), heap.map(count), nRows)(k => covered(heap(k)))
    val most  = ranked.foldLeft(0)((m, i) => math.max(m, count(i)))
    DiscoveryResult(
      nRows = nRows,
      // The single best transformation is reported even when it falls below
      // the cover-set support floor (it is still the max-coverage answer).
      top = ranked.filter(count(_) == most).map(i => (transformation(i), most)).minOption(CoverSet.order),
      coverSet = cover,
      stats = stats,
      elapsedMs = (System.nanoTime() - t0) / 1000000L,
    )
  }
}

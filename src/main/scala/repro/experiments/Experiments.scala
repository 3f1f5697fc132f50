package repro.experiments

import repro.autojoin.AutoJoin
import repro.autojoin.AutoJoin.AutoJoinConfig
import repro.core.{Coverage, CoverSet, Discovery, Transformation}
import repro.core.Discovery.DiscoveryConfig
import repro.core.TransformationGen.GenConfig
import repro.data._
import repro.matching.{MatchMetrics, RowMatcher}

/** Shared harness for the paper's evaluation tables (§6). Each bench/job
  * calls into here; the benches print paper-vs-measured rows.
  */
object Experiments {

  /** Scale knobs (env-overridable) sized so the full bench run stays in the
    * minutes range on a 16-core workstation; the paper's absolute times (up
    * to 650 000 s for Auto-Join) are represented by explicit budgets.
    */
  final case class Scale(
      /** Independent synthetic tables per configuration (paper uses 10). */
      synthSeeds: Int = envInt("REPRO_SYNTH_SEEDS", 2),
      /** Rows in the open-data simulation (paper golden set: 3 808). */
      openRows: Int = envInt("REPRO_OPEN_ROWS", 1200),
      /** Sample cap for open-data discovery (paper samples 3 000 of 360 125). */
      openSamplePairs: Int = envInt("REPRO_OPEN_SAMPLE", 500),
      /** Auto-Join wall-clock budget per table, standing in for the paper's
        * 650 000 s cap.
        */
      autoJoinBudgetMs: Long = envInt("REPRO_AUTOJOIN_BUDGET_MS", 6000).toLong,
      /** Skip Auto-Join entirely (Tables 1/3 do not need it). */
      runAutoJoin: Boolean = sys.env.getOrElse("REPRO_RUN_AUTOJOIN", "1") == "1",
  )

  /** Rows of the synthetic tables: Synth-50 and Synth-500 (§6.1). */
  val SynthRows: Vector[Int] = Vector(50, 500)

  private def envInt(k: String, d: Int): Int = sys.env.get(k).map(_.toInt).getOrElse(d)

  sealed trait Matching { def label: String }
  case object NGramMatching extends Matching { val label = "N-Gram" }
  case object GoldenMatching extends Matching { val label = "Golden" }

  /** Result of one method (ours or Auto-Join) on one dataset+matching. */
  final case class MethodOut(
      topCov: Double,
      setCov: Double,
      nTrans: Double,
      timeSec: Double,
      budgetExceeded: Boolean,
  )

  /** Everything Tables 2 and 3 print for one (dataset, matching) cell. */
  final case class DatasetRun(
      dataset: String,
      matching: String,
      ours: MethodOut,
      autojoin: Option[MethodOut],
      pruning: Discovery.PruningStats,
  )

  // ---- Datasets ------------------------------------------------------------

  /** One §6.1 dataset as the tables evaluate it: a table row is the mean over
    * `tables`, each discovered with `config` on at most `sampleCap` matched
    * pairs.
    */
  final case class EvalSet(
      name: String,
      tables: Vector[JoinDataset],
      config: DiscoveryConfig = DiscoveryConfig(),
      sampleCap: Int = Int.MaxValue,
  )

  /** The six evaluation datasets of §6.1 in table order: the 31 benchmark
    * tables, open data, then each synth configuration over `synthSeeds`
    * seeds (Synth-NL tables are seeded `1000 + s`).
    */
  def evalSets(scale: Scale): Vector[EvalSet] = {
    // Open data: false matches flood the candidate space (the paper's own
    // run on this dataset took 23 386 s). The sampled noisy pairs run with
    // tight generation caps, matching the paper's observed ~1.2k generated
    // per row on real addresses.
    val open = EvalSet(
      "Open data", Vector(OpenDataSim.generate(scale.openRows)),
      DiscoveryConfig(
        GenConfig(maxCandidatesPerPlaceholder = 16, maxTransPerRow = 4000), supportThreshold = 0.01),
      scale.openSamplePairs,
    )
    val seeds = (1 to scale.synthSeeds).toVector
    val synths = SynthRows.flatMap { rows =>
      Vector(
        EvalSet(s"Synth-$rows", seeds.map(s => SynthJoin.synth(rows, seed = s))),
        EvalSet(s"Synth-${rows}L", seeds.map(s => SynthJoin.synthL(rows, seed = 1000L + s))),
      )
    }
    Vector(EvalSet("Benchmark", WebBenchSim.all()), open) ++ synths
  }

  // ---- Matching + sampling -------------------------------------------------

  /** Fixes which matched pairs a capped set samples (open data). */
  final val SampleSeed = 17L

  /** Candidate pairs under the requested matching, sorted, then sampled down
    * to `sampleCap` by a shuffle seeded with [[SampleSeed]].
    */
  def matched(ds: JoinDataset, mode: Matching, sampleCap: Int): Vector[(String, String)] = {
    val pairs = (mode match {
      case NGramMatching  => RowMatcher.matchPairs(ds.source, ds.target)
      case GoldenMatching => ds.goldPairs
    }).toVector.sorted
    val sampled =
      if (pairs.size <= sampleCap) pairs
      else new scala.util.Random(SampleSeed).shuffle(pairs).take(sampleCap)
    ds.materialize(sampled)
  }

  // ---- One experiment cell -------------------------------------------------

  /** Runs our discovery (and optionally Auto-Join) on one table of `set`
    * under one matching mode. Both methods are scored on the table's gold
    * pairs — the denominator every method shares, so noisy matchings cannot
    * inflate their own score.
    */
  def runDataset(ds: JoinDataset, mode: Matching, set: EvalSet, scale: Scale): DatasetRun = {
    val pairs  = matched(ds, mode, set.sampleCap)
    val gold   = ds.goldPairStrings
    val filter = new Coverage.UnitFilter(Coverage.rowStates(gold))
    def goldCoverage(ts: Seq[Transformation]): (Double, Double) = {
      val covered = ts.map(filter.covered)
      val n       = math.max(1, gold.size).toDouble
      (covered.map(_.length).maxOption.getOrElse(0) / n,
        CoverSet.unionCoverage(covered, gold.size) / n)
    }

    val disc              = Discovery.discover(pairs, set.config)
    val oursTs            = disc.transformations
    val (oursTop, oursSet) = goldCoverage(if (oursTs.nonEmpty) oursTs else disc.top.map(_._1).toVector)

    val aj = Option.when(scale.runAutoJoin) {
      val res            = AutoJoin.run(pairs, AutoJoinConfig(timeLimitMs = scale.autoJoinBudgetMs))
      val (ajTop, ajSet) = goldCoverage(res.transformations)
      MethodOut(ajTop, ajSet, res.transformations.size.toDouble,
        res.elapsedMs / 1000.0, res.budgetExhausted)
    }

    DatasetRun(
      dataset = ds.name,
      matching = mode.label,
      ours = MethodOut(oursTop, oursSet, oursTs.size.toDouble, disc.elapsedMs / 1000.0, budgetExceeded = false),
      autojoin = aj,
      pruning = disc.stats,
    )
  }

  /** Mean of several runs (the 31 benchmark tables and the synth seeds; the
    * paper reports means the same way). The mean of one run is that run.
    */
  def mean(runs: Seq[DatasetRun], name: String): DatasetRun = {
    require(runs.nonEmpty)
    def avg(f: DatasetRun => Double)  = average(runs)(f)
    def avgL(f: DatasetRun => Long)   = math.round(avg(f(_).toDouble))
    def avgM(f: DatasetRun => MethodOut): MethodOut = MethodOut(
      avg(f(_).topCov), avg(f(_).setCov), avg(f(_).nTrans), avg(f(_).timeSec),
      runs.exists(f(_).budgetExceeded),
    )
    DatasetRun(
      dataset = name,
      matching = runs.head.matching,
      ours = avgM(_.ours),
      autojoin = Option.when(runs.forall(_.autojoin.isDefined))(avgM(_.autojoin.get)),
      pruning = Discovery.PruningStats(
        avgL(_.pruning.generated), avgL(_.pruning.toTry),
        avgL(_.pruning.cacheHits), avgL(_.pruning.cacheMisses), avgL(_.pruning.truncated),
      ),
    )
  }

  private def average[A](xs: Seq[A])(f: A => Double): Double = xs.map(f).sum / xs.size

  /** Matching-only measurement for Table 1 (no discovery, no Auto-Join). */
  final case class MatchRow(
      dataset: String,
      nRows: Double,
      avgLen: Double,
      nPairs: Double,
      prf: MatchMetrics.PRF,
  )

  /** Table 1 rows: n-gram row matching quality on all six datasets, each
    * the field-wise mean over its tables.
    */
  def table1(scale: Scale): Vector[MatchRow] = evalSets(scale).map { set =>
    val rows = set.tables.map { ds =>
      val predicted = RowMatcher.matchPairs(ds.source, ds.target)
      MatchRow(ds.name, ds.source.size.toDouble, ds.avgSourceLen, predicted.size.toDouble,
        MatchMetrics.score(predicted, ds.goldPairs))
    }
    def avg(f: MatchRow => Double) = average(rows)(f)
    MatchRow(set.name, avg(_.nRows), avg(_.avgLen), avg(_.nPairs),
      MatchMetrics.PRF(avg(_.prf.precision), avg(_.prf.recall), avg(_.prf.f1)))
  }

  /** Every evaluation set under one matching: one Table 2/3 row each. */
  def allCells(scale: Scale, mode: Matching): Vector[DatasetRun] =
    evalSets(scale).map(set => mean(set.tables.map(runDataset(_, mode, set, scale)), set.name))

  /** Tables 2 and 3: every evaluation set under n-gram, then golden matching. */
  def cells(scale: Scale): Vector[DatasetRun] =
    Vector(NGramMatching, GoldenMatching).flatMap(allCells(scale, _))
}

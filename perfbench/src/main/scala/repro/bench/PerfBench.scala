package repro.bench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult, PruningStats}
import repro.data.OpenDataSim
import repro.matching.RowMatcher
import repro.sparkjoin.{SparkDiscovery, SparkRowMatcher, TransformJoin}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Try

/** The transform-join benchmark.
  *
  * {{{
  * PerfBench --workload <web-golden|synth-golden> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Closed loop, one process: the workload's operations run one after
  * another, in whole passes, for about `--seconds` seconds (at least one
  * pass). Every output is checked against DuckDB outside the timed region.
  * The last line of standard output is one JSON object with `correct`,
  * `attempted`, `failed` and `metrics`: the end-to-end metrics with
  * `--trace 0`, the per-layer metrics with `--trace 1`. The traced run also
  * writes its spans and counters to `.bench_build/trace-<workload>-<seed>.json`.
  */
object PerfBench {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  /** Set-up (SparkSession plus input generation) is repeated this often and
    * its median reported.
    */
  val setupRepeats = 5

  /** Spark runs `local[k]`, k at most 4. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  /** Where the run may write: Spark's warehouse and the trace file. */
  val workDir: String = sys.props.getOrElse("perfbench.workDir", ".bench_build")

  private val runStart = System.nanoTime()

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  private def msSince(t0: Long): Double      = (System.nanoTime() - t0) / 1e6

  def log(msg: String): Unit = Console.err.println(f"[perfbench ${secondsSince(runStart)}%7.1f s] $msg")

  def parse(argv: Array[String]): Args = {
    require(argv.length % 2 == 0, s"expected --key value pairs, got ${argv.mkString(" ")}")
    val m = argv.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--"), s"expected --key, got $k"); k.drop(2) -> v
    }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val unknown = m.keySet -- Set("workload", "seed", "seconds", "trace")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = need("seconds").toInt
    require(seconds >= 1, s"--seconds must be at least 1, got $seconds")
    Args(need("workload"), need("seed").toLong, seconds, trace == "1")
  }

  def newSession(): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.warehouse.dir", Paths.get(workDir, "spark-warehouse").toAbsolutePath.toString)
      // The session settings of the repository's own Spark tests.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty)
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  // ---- Running operations --------------------------------------------------

  final case class OpRun(op: DiscoverOp, seconds: Double, outcome: Either[Throwable, DiscoveryResult])

  /** One pass over every operation. `counters` holds a traced pass's
    * per-layer counts; `spanId` is its span in the tracer (-1 untraced).
    */
  final case class Pass(seconds: Double, runs: Vector[OpRun], counters: Map[String, Double], spanId: Int)

  /** Discovery exactly as `Discovery.discover` composes it, with a span
    * around each public step: generation, coverage counts, ranking, finish.
    * Unlike `discover`, this keeps `GenStats.truncated`.
    */
  def tracedDiscover(
      pairs: Seq[(String, String)],
      cfg: DiscoveryConfig,
      tr: Tracer,
      counters: mutable.Map[String, Double],
  ): DiscoveryResult = {
    val t0              = System.nanoTime()
    val (distinct, gen) = tr.span("generate")(TransformationGen.forPairs(pairs, cfg.gen))
    val (rows, counts, cs) = tr.span("coverage") {
      val rows         = Coverage.rowStates(pairs)
      val (counts, cs) = Coverage.counts(distinct, rows)
      (rows, counts, cs)
    }
    val ranked = tr.span("rank") {
      counts.indices.iterator
        .filter(i => counts(i) >= 1 && !distinct(i).isConstant)
        .map(i => (distinct(i), counts(i)))
        .toVector
    }
    val res = tr.span("finish") {
      Discovery.finish(
        pairs.size, ranked, cs, rows,
        PruningStats(gen.generated, distinct.size.toLong, cs.hits, cs.misses), cfg, t0,
      )
    }
    def add(k: String, v: Double): Unit = counters(k) = counters.getOrElse(k, 0.0) + v
    add("generate.generated", gen.generated.toDouble)
    add("generate.truncated", gen.truncated.toDouble)
    add("generate.distinct", distinct.size.toDouble)
    add("coverage.hits", cs.hits.toDouble)
    add("coverage.misses", cs.misses.toDouble)
    add("finish.ranked", ranked.size.toDouble)
    add("finish.cover_rules", res.coverSet.size.toDouble)
    res
  }

  def runPass(ops: Vector[DiscoverOp], tr: Option[Tracer]): Pass = {
    val counters = mutable.LinkedHashMap.empty[String, Double]
    val spanId   = tr.fold(-1)(_.nextId)
    def body(): Vector[OpRun] = ops.map { op =>
      val t0 = System.nanoTime()
      val out = Try(tr match {
        case None    => Discovery.discover(op.pairs, Workloads.goldenConfig)
        case Some(t) => t.span(s"op:${op.name}")(tracedDiscover(op.pairs, Workloads.goldenConfig, t, counters))
      }).toEither
      val s = secondsSince(t0)
      log(f"${op.name}: $s%.2f s")
      OpRun(op, s, out)
    }
    val t0   = System.nanoTime()
    val runs = tr.fold(body())(_.span("pass")(body()))
    Pass(secondsSince(t0), runs, counters.toMap, spanId)
  }

  /** Whole passes while another pass as long as the last one still fits in
    * `seconds`; at least one.
    */
  def runPasses(ops: Vector[DiscoverOp], seconds: Int, tr: Option[Tracer]): Vector[Pass] = {
    val t0     = System.nanoTime()
    val passes = Vector.newBuilder[Pass]
    var last   = runPass(ops, tr)
    passes += last
    while (secondsSince(t0) + last.seconds <= seconds) {
      last = runPass(ops, tr)
      passes += last
    }
    passes.result()
  }

  // ---- Checking outputs ----------------------------------------------------

  /** The checks of a run: every op's cover set against DuckDB, the cover
    * sets' stability across passes, and the workload's coverage floor.
    */
  final class Checks(wl: Workload, duck: DuckCheck) {
    private val tables = mutable.HashMap.empty[String, String]
    private val covers = mutable.HashMap.empty[String, String]
    private var warm   = (Vector.empty[Long], Vector.empty[Long])
    val failures       = mutable.ArrayBuffer.empty[String]
    val coverLog       = mutable.ArrayBuffer.empty[String]
    val goldPerPass    = mutable.ArrayBuffer.empty[Double]
    var attempted      = 0L
    var failed         = 0L
    var wrong          = 0

    private def table(op: DiscoverOp): String = tables.getOrElseUpdate(op.name,
      duck.load("rid BIGINT, src VARCHAR, tgt VARCHAR",
        op.pairs.iterator.zipWithIndex.map { case ((s, t), i) => (i.toLong, s, t) }))

    /** Checks one pass; returns the gold rows covered and the gold rows of
      * each op.
      */
    private def judge(pass: Pass): (Vector[Long], Vector[Long]) = {
      attempted += pass.runs.size
      val covered = pass.runs.map { r =>
        r.outcome match {
          case Left(e) =>
            failed += 1; failures += s"${r.op.name}: threw $e"; 0L
          case Right(res) =>
            val c     = DuckCheck.checkDiscovery(duck, table(r.op), res.coverSet)
            val cover = res.transformations.map(_.render).mkString(" | ")
            coverLog += s"${r.op.name}: $cover"
            val changed = covers.get(r.op.name).exists(_ != cover)
            covers(r.op.name) = cover
            val errs = c.errors ++ Option.when(changed)("cover set changed between passes")
            if (errs.nonEmpty) { failed += 1; wrong += 1; failures += s"${r.op.name}: ${errs.mkString("; ")}" }
            c.unionCovered.toLong
        }
      }
      (covered, pass.runs.map(_.op.pairs.size.toLong))
    }

    /** The warm-up pass counts toward every timed pass's floor and gold rows. */
    def warmup(pass: Pass): Unit = warm = judge(pass)

    def timed(pass: Pass): Unit = {
      val (c, g)  = judge(pass)
      val covered = warm._1 ++ c
      val gold    = warm._2 ++ g
      if (!wl.floorHolds(covered, gold)) {
        wrong += 1
        failures += s"coverage floor missed: ${covered.sum} of ${gold.sum} gold rows"
      }
      goldPerPass += covered.sum.toDouble
    }

    def correct: Boolean = wrong == 0
  }

  // ---- Per-layer measurements ----------------------------------------------

  private def gcMs(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.toDouble).sum

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  /** Discovery-layer metrics from the spans under span `under` and the
    * counters `tracedDiscover` collected there.
    */
  def layerMetrics(tr: Tracer, under: Int, c: Map[String, Double]): Map[String, Double] = {
    def ms(name: String) = tr.totalMs(name, under)
    def get(k: String)   = c.getOrElse(k, 0.0)
    val generated = get("generate.generated")
    val distinct  = get("generate.distinct")
    val apps      = get("coverage.hits") + get("coverage.misses")
    Map(
      "generate.ms"                 -> ms("generate"),
      "generate.generated"          -> generated,
      "generate.truncated"          -> get("generate.truncated"),
      "generate.distinct"           -> distinct,
      "generate.dup_ratio"          -> (if (generated == 0) 0.0 else (generated - distinct) / generated),
      "coverage.ms"                 -> ms("coverage"),
      "coverage.applications"       -> apps,
      "coverage.cache_hit_ratio"    -> (if (apps == 0) 0.0 else get("coverage.hits") / apps),
      "coverage.ns_per_application" -> (if (apps == 0) 0.0 else ms("coverage") * 1e6 / apps),
      "finish.ms"                   -> ms("finish"),
      "finish.ranked"               -> get("finish.ranked"),
      "finish.cover_rules"          -> get("finish.cover_rules"),
    )
  }

  /** `SparkDiscovery.discover` on the workload's timed inputs, for comparison
    * with the local discovery of the passes.
    */
  def sparkDiscovery(spark: SparkSession, ops: Vector[DiscoverOp], tr: Tracer): Double = {
    val t0 = System.nanoTime()
    tr.span("spark_discover")(ops.foreach(op => SparkDiscovery.discover(spark, op.pairs, Workloads.goldenConfig)))
    msSince(t0)
  }

  /** The transform-join on the simulated open data (3 808 rows from the run's
    * seed, open-data discovery settings, 200 sampled pairs), with Spark and
    * local n-gram matching on the same columns for comparison. The joined
    * pairs are checked against DuckDB's join under the same rules; mismatches
    * are returned as errors.
    */
  def openDataJoin(
      spark: SparkSession,
      seed: Long,
      tr: Tracer,
      duck: DuckCheck,
      out: mutable.Map[String, Double],
      coverLog: mutable.Buffer[String],
  ): Vector[String] = {
    val ds   = OpenDataSim.generate(Workloads.openRows, seed)
    val src  = ds.sourceDf(spark).cache()
    val tgt  = ds.targetDf(spark).cache()
    val gold = ds.goldPairs.map { case (s, t) => (s.toLong, t.toLong) }

    val m0     = System.nanoTime()
    val nSpark = tr.span("matching.spark")(SparkRowMatcher.matchPairs(src, tgt).count())
    out("matching.spark_ms") = msSince(m0)
    val m1    = System.nanoTime()
    val local = tr.span("matching.local")(RowMatcher.matchPairs(ds.source, ds.target))
    out("matching.local_ms") = msSince(m1)
    out("matching.pairs") = nSpark.toDouble
    out("matching.precision") =
      if (local.isEmpty) 0.0 else local.count(ds.goldPairs.contains).toDouble / local.size

    val j0     = System.nanoTime()
    val res    = tr.span("join.call")(TransformJoin.join(spark, src, tgt, Workloads.openJoin))
    val callMs = msSince(j0)
    val j1     = System.nanoTime()
    val pairs = tr.span("join.exec") {
      res.joined.select("src_id", "tgt_id").collect().iterator.map(r => (r.getLong(0), r.getLong(1))).toSet
    }
    out("join.exec_ms") = msSince(j1)
    out("join.call_ms") = callMs
    out("join.discover_ms") = res.discovery.elapsedMs.toDouble
    out("join.match_sample_ms") = callMs - res.discovery.elapsedMs
    out("join.pairs") = pairs.size.toDouble
    out("join.precision") = if (pairs.isEmpty) 0.0 else pairs.count(gold.contains).toDouble / pairs.size
    val cover = res.transformations.map(_.render).mkString(" | ")
    coverLog += s"${ds.name}: $cover"
    log(s"${ds.name}: ${pairs.count(gold.contains)} of ${gold.size} gold pairs joined by $cover")

    val srcT = duck.load("src_id BIGINT, src_val VARCHAR", ds.source.iterator.zipWithIndex.map { case (s, i) => (i.toLong, s) })
    val tgtT = duck.load("tgt_id BIGINT, tgt_val VARCHAR", ds.target.iterator.zipWithIndex.map { case (s, i) => (i.toLong, s) })
    val expected = DuckCheck.joinPairs(duck, srcT, tgtT, res.transformations)
    src.unpersist()
    tgt.unpersist()
    Vector(
      Option.when(nSpark != local.size)(s"${ds.name}: Spark matching gave $nSpark pairs, local matching ${local.size}"),
      Option.when(expected != pairs)(
        s"${ds.name}: join gave ${pairs.size} pairs, DuckDB ${expected.size}; " +
          s"${(pairs -- expected).size} only in the join, ${(expected -- pairs).size} only in DuckDB"),
    ).flatten
  }

  // ---- Metric catalogue ----------------------------------------------------

  val perLayer: Vector[(String, String)] = Vector(
    "matching.spark_ms" -> "ms", "matching.local_ms" -> "ms", "matching.pairs" -> "count",
    "matching.precision" -> "ratio",
    "generate.ms" -> "ms", "generate.generated" -> "count", "generate.truncated" -> "count",
    "generate.distinct" -> "count", "generate.dup_ratio" -> "ratio",
    "coverage.ms" -> "ms", "coverage.applications" -> "count", "coverage.cache_hit_ratio" -> "ratio",
    "coverage.ns_per_application" -> "ns",
    "finish.ms" -> "ms", "finish.ranked" -> "count", "finish.cover_rules" -> "count",
    "spark_discover.ms" -> "ms",
    "join.call_ms" -> "ms", "join.discover_ms" -> "ms", "join.match_sample_ms" -> "ms",
    "join.exec_ms" -> "ms", "join.pairs" -> "count", "join.precision" -> "ratio",
    "jvm.gc_ms" -> "ms", "jvm.heap_peak_mb" -> "MB",
    "trace.overhead_s" -> "s",
  )

  // ---- Main ----------------------------------------------------------------

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val wl   = Workloads.byName(args.workload)
    Files.createDirectories(Paths.get(workDir))

    var spark: SparkSession      = null
    var ops: Vector[DiscoverOp]  = Vector.empty
    var warm: Vector[DiscoverOp] = Vector.empty
    val setups = (1 to setupRepeats).map { i =>
      if (spark != null) spark.stop()
      val t0 = if (i == 1) runStart else System.nanoTime()
      spark = newSession()
      ops = wl.ops(args.seed)
      warm = wl.warmupOps(args.seed)
      secondsSince(t0)
    }
    log(s"set-up: ${setups.map(s => f"$s%.3f").mkString(" ")} s")

    val duck = new DuckCheck
    try {
      val checks = new Checks(wl, duck)
      if (warm.nonEmpty) checks.warmup(runPass(warm, None))

      val gc0 = gcMs()
      heapPools.foreach(_.resetPeakUsage())
      // A traced run splits its time between untraced and traced passes.
      val passSeconds = if (args.trace) math.max(1, args.seconds / 2) else args.seconds
      val plain    = runPasses(ops, passSeconds, None)
      val gcPlain  = gcMs() - gc0
      val heapPeak = heapPools.map(_.getPeakUsage.getUsed.toDouble).sum / (1 << 20)
      plain.foreach(checks.timed)
      val passS = median(plain.map(_.seconds))

      val metrics: Vector[(String, String, Double)] =
        if (!args.trace) Vector(
          ("setup_s", "s", median(setups)),
          ("pass_s", "s", passS),
          ("gold_rows_covered", "count", median(checks.goldPerPass.toSeq)),
        )
        else {
          val tr     = new Tracer
          val traced = runPasses(ops, passSeconds, Some(tr))
          traced.foreach(checks.timed)
          val perPass = traced.map(p => layerMetrics(tr, p.spanId, p.counters))
          val values  = mutable.LinkedHashMap.empty[String, Double]
          for (k <- perPass.head.keys) values(k) = median(perPass.map(_(k)))
          log("Spark discovery on the workload's inputs")
          values("spark_discover.ms") = sparkDiscovery(spark, ops, tr)
          log("matching and transform-join on the open data")
          val joinErrors = openDataJoin(spark, args.seed, tr, duck, values, checks.coverLog)
          checks.wrong += joinErrors.size
          checks.failures ++= joinErrors
          values("jvm.gc_ms") = gcPlain
          values("jvm.heap_peak_mb") = heapPeak
          values("trace.overhead_s") = median(traced.map(_.seconds)) - passS
          val layerShare = (values("generate.ms") + values("coverage.ms") + values("finish.ms")) / 1000.0 / passS
          writeTrace(args, tr, plain, traced, values, layerShare, checks)
          perLayer.map { case (k, u) => (k, u, values(k)) }
        }

      checks.failures.foreach(f => log(s"FAILED $f"))
      val result = Json.obj(Seq(
        "correct"   -> checks.correct.toString,
        "attempted" -> checks.attempted.toString,
        "failed"    -> checks.failed.toString,
        "metrics" -> Json.obj(metrics.map { case (k, u, v) =>
          k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
        }),
      ))
      println(result)
    } finally {
      duck.close()
      spark.stop()
    }
  }

  def writeTrace(
      args: Args,
      tr: Tracer,
      plain: Vector[Pass],
      traced: Vector[Pass],
      values: collection.Map[String, Double],
      layerShare: Double,
      checks: Checks,
  ): Unit = {
    val spans = tr.all
    val t0    = spans.headOption.fold(0L)(_.startNs)
    val json = Json.obj(Seq(
      "workload"                -> Json.str(args.workload),
      "seed"                    -> args.seed.toString,
      "untraced_pass_s"         -> Json.arr(plain.map(p => Json.num(p.seconds))),
      "traced_pass_s"           -> Json.arr(traced.map(p => Json.num(p.seconds))),
      "layer_sum_share_of_pass" -> Json.num(layerShare),
      "metrics" -> Json.obj(perLayer.map { case (k, u) =>
        k -> Json.obj(Seq("value" -> Json.num(values(k)), "unit" -> Json.str(u)))
      }),
      "cover_sets" -> Json.arr(checks.coverLog.toSeq.map(Json.str)),
      "failures"   -> Json.arr(checks.failures.toSeq.map(Json.str)),
      "spans" -> Json.arr(spans.map(s => Json.obj(Seq(
        "id"       -> s.id.toString,
        "name"     -> Json.str(s.name),
        "parent"   -> s.parent.toString,
        "start_ms" -> Json.num((s.startNs - t0) / 1e6),
        "end_ms"   -> Json.num((s.endNs - t0) / 1e6),
      )))),
    ))
    val path = Paths.get(workDir, s"trace-${args.workload}-${args.seed}.json")
    Files.write(path, (json + "\n").getBytes(StandardCharsets.UTF_8))
    log(s"trace written to $path")
  }
}

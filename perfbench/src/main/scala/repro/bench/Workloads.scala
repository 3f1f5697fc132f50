package repro.bench

import repro.core.Discovery.DiscoveryConfig
import repro.core.TransformationGen.GenConfig
import repro.data._
import repro.sparkjoin.TransformJoin.TransformJoinConfig
import scala.util.Random

/** One operation: `Discovery.discover` on the gold pairs of one table pair. */
final case class DiscoverOp(ds: JoinDataset) {
  def name: String = ds.name
  val pairs: Vector[(String, String)] = ds.goldPairStrings
}

/** A workload: the operations of one pass, built from the seed given on the
  * command line. The program only ever sees the generated tables.
  */
sealed trait Workload {
  def name: String
  def ops(seed: Long): Vector[DiscoverOp]

  /** Operations run once per run, untimed, before the timed passes. */
  def warmupOps(seed: Long): Vector[DiscoverOp]

  /** The coverage floor of the paper's Table 2 shape checks: `covered(k)`
    * of the `gold(k)` gold rows of op k are covered.
    */
  def floorHolds(covered: Vector[Long], gold: Vector[Long]): Boolean
}

object Workloads {

  val all: Vector[Workload] = Vector(WebGolden, SynthGolden)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (expected one of ${all.map(_.name).mkString(", ")})"
      )
    )

  /** The default discovery configuration, as the Table 2 golden cells use it. */
  val goldenConfig: DiscoveryConfig = DiscoveryConfig()

  /** The open-data settings of `Experiments.allCells`: 1 % support and tight
    * generation caps against the false-match flood.
    */
  val openDiscovery: DiscoveryConfig = DiscoveryConfig(
    gen = GenConfig(maxCandidatesPerPlaceholder = 16, maxTransPerRow = 4000),
    supportThreshold = 0.01,
  )

  /** Pairs sampled for open-data discovery. The paper samples 3 000, about an
    * hour of coverage today (about 9.8 M distinct candidates); 200 keeps the
    * join in the tens of seconds.
    */
  val openSample = 200

  val openJoin: TransformJoinConfig =
    TransformJoinConfig(discovery = openDiscovery, samplePairs = openSample)

  /** Rows of the simulated open-data golden set, as in the paper. */
  val openRows = 3808

  /** `ds` with its source rows and its target rows each in a seeded random
    * order; the gold pairs follow the rows. Table content is fixed, so the
    * work of a pass is the same for every seed, while the program sees each
    * seed's order and row indices.
    */
  def permuted(ds: JoinDataset, seed: Long): JoinDataset = {
    val rnd      = new Random(seed ^ ds.name.hashCode.toLong)
    val srcOrder = rnd.shuffle(ds.source.indices.toVector)
    val tgtOrder = rnd.shuffle(ds.target.indices.toVector)
    val srcPos   = new Array[Int](srcOrder.size)
    val tgtPos   = new Array[Int](tgtOrder.size)
    srcOrder.zipWithIndex.foreach { case (old, now) => srcPos(old) = now }
    tgtOrder.zipWithIndex.foreach { case (old, now) => tgtPos(old) = now }
    ds.copy(
      source = srcOrder.map(ds.source),
      target = tgtOrder.map(ds.target),
      goldPairs = ds.goldPairs.map { case (i, j) => (srcPos(i), tgtPos(j)) },
    )
  }

  object WebGolden extends Workload {
    val name = "web-golden"

    /** The simulated web tables at the generator's default seed, the tables
      * behind the paper's Table 2 "Benchmark" row. The timed pass takes
      * eight of the 31, all about 90 rows with 10 k to 100 k distinct
      * candidates each, so that one pass takes a few seconds.
      */
    val tables: Vector[String] = Vector(
      "web02-gov-names", "web03-authors", "web09-founding-dates", "web10-release-dates",
      "web17-domains", "web18-websites", "web29-versions", "web31-governors",
    )

    /** `web27-coordinates` (about 850 k distinct candidates, 15-25 s) is the
      * table whose 2 000-entry shortlist fills with variants of its dominant
      * rule and cuts the second rule. It runs once per run as the warm-up:
      * checked and counted like every operation, but untimed, because on its
      * own it would leave room for a single timed pass.
      */
    val warmupTable = "web27-coordinates"

    private def table(name: String, seed: Long): DiscoverOp =
      DiscoverOp(permuted(WebBenchSim.dataset(WebBenchSim.specs.find(_.name == name).get), seed))

    def ops(seed: Long): Vector[DiscoverOp] = tables.map(table(_, seed))

    def warmupOps(seed: Long): Vector[DiscoverOp] = Vector(table(warmupTable, seed))

    /** Table2Bench's floor: mean coverage over the web tables >= 0.95. */
    def floorHolds(covered: Vector[Long], gold: Vector[Long]): Boolean =
      covered.zip(gold).map { case (c, g) => c.toDouble / g }.sum / gold.size >= 0.95
  }

  object SynthGolden extends Workload {
    val name = "synth-golden"

    /** Rows per synthetic table. The paper's largest size, 500, takes about
      * 22 s for a pass over both tables; 250 leaves room for several passes.
      */
    val rows = 250

    /** Synth-N and Synth-NL at the first seeds `Experiments.synthTables` uses. */
    private def tables(n: Int, seed: Long): Vector[DiscoverOp] = Vector(
      DiscoverOp(permuted(SynthJoin.synth(n, seed = 1L), seed)),
      DiscoverOp(permuted(SynthJoin.synthL(n, seed = 1001L), seed)),
    )

    def ops(seed: Long): Vector[DiscoverOp] = tables(rows, seed)

    /** Synth-50 and Synth-50L, the paper's small size: a fraction of a second
      * that compiles the discovery code before the first timed pass.
      */
    def warmupOps(seed: Long): Vector[DiscoverOp] = tables(50, seed)

    /** Table2Bench's floor: coverage >= 0.95 on each synthetic table. */
    def floorHolds(covered: Vector[Long], gold: Vector[Long]): Boolean =
      covered.zip(gold).forall { case (c, g) => c >= 0.95 * g }
  }
}

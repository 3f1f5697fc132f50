package repro.data

import repro.core._
import scala.util.Random

/** Simulated stand-in for the paper's Open Governmental dataset (§6.1):
  * Edmonton property assessments joined with white-pages listings on the
  * address field.
  *
  * The operative statistics being reproduced (see DESIGN.md §3): a golden set
  * of ~3 808 matched address pairs; n-gram row matching that *floods* —
  * recall ≈ 0.9 but precision ≈ 0.01, because house and street numbers are
  * drawn from small colliding pools while the target formats break the long
  * cross-token n-grams (dash instead of space between house and street, 'st'
  * instead of 'street'); and exactly 3 gold transformations, so discovery
  * must recover them from the flood via sampling plus a support threshold.
  */
object OpenDataSim {

  /** Pools are deliberately small so many rows collide on house or street
    * number — the source of the false-positive flood.
    */
  private val housePoolSize  = 120
  private val streetPoolSize = 40

  // Source format: "<house> <street> <type> <quad> edmonton"
  // e.g. "10223 104 street nw edmonton" — split pieces are
  // 1=house 2=street 3=type 4=quad 5=city.
  val goldTransformations: Vector[Transformation] = Vector(
    // "10223-104 st nw"
    Transformation(Split(' ', 1), Literal("-"), Split(' ', 2), Literal(" st "), Split(' ', 4)),
    // "104 st nw #10223"
    Transformation(Split(' ', 2), Literal(" st "), Split(' ', 4), Literal(" #"), Split(' ', 1)),
    // "10223-104"
    Transformation(Split(' ', 1), Literal("-"), Split(' ', 2)),
  )
  private val goldWeights = Vector(0.45, 0.35, 0.20)

  def generate(rows: Int = 3808, seed: Long = 99L): JoinDataset = {
    val rnd     = new Random(seed)
    val houses  = Vector.fill(housePoolSize)(s"1${100 + rnd.nextInt(900)}${rnd.nextInt(10)}").distinct
    val streets = Vector.fill(streetPoolSize)(s"${60 + rnd.nextInt(120)}").distinct
    val types   = Vector("street", "avenue")
    val quads   = Vector("nw", "sw", "ne", "se")

    val source = JoinDataset.distinctRows(rows, rows * 200) {
      s"${houses(rnd.nextInt(houses.size))} ${streets(rnd.nextInt(streets.size))} " +
        s"${types(rnd.nextInt(2))} ${quads(rnd.nextInt(4))} edmonton"
    }
    require(source.size == rows, s"address pool exhausted at ${source.size} rows")
    JoinDataset.fromGoldRules("Open data", source, goldTransformations, rnd, JoinDataset.weighted(goldWeights))
  }
}

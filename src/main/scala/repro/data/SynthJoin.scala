package repro.data

import repro.core._
import scala.util.Random

/** The paper's synthetic joinable-table generator (§6.1).
  *
  * Synth-N: N rows, source lengths U[20, 35]; Synth-NL: N rows, source
  * lengths U[40, 70]. Each source row is an alphanumeric string; a table has
  * 3 gold transformations, each with p = 2 placeholders and 1–2 literal
  * blocks of length [1, 5]; a random gold transformation maps each source row
  * to its target row.
  *
  * Construction detail: each table reserves two delimiter characters from the
  * alphanumeric alphabet and injects each twice into every source row at
  * interior positions >= `delimFloor`, so Split / SplitSubstr gold units are
  * defined on every row (piece 1 is always at least `delimFloor` long);
  * random body characters are drawn from the remaining alphabet so delimiter
  * occurrence counts are exact.
  */
object SynthJoin {

  private val BodyAlphabet  = ("abcdefghijklm" + "012345").toVector
  private val DelimPool     = "nopqrstuvw89".toVector
  private val LiteralPool   = "ABCDEFGHIJKLMNOPQRSTUVWXYZ".toVector

  /** The earliest position a delimiter may be injected at; piece 1 of any
    * delimiter split is therefore at least this long, which bounds valid
    * SplitSubstr offsets.
    */
  private val delimFloor = 10

  /** Gold transformations per table: 3 (§6.1). */
  final val GoldRules = 3

  /** Synth-N (short rows). */
  def synth(rows: Int, seed: Long = 42L): JoinDataset = generate(rows, 20, 35, seed, "")

  /** Synth-NL (long rows). */
  def synthL(rows: Int, seed: Long = 42L): JoinDataset = generate(rows, 40, 70, seed, "L")

  private def randomLiteral(rnd: Random): Literal =
    Literal(Vector.fill(1 + rnd.nextInt(5))(LiteralPool(rnd.nextInt(LiteralPool.size))).mkString)

  /** One gold placeholder unit, valid for every source row by construction. */
  private def randomPlaceholderUnit(rnd: Random, minLen: Int, delims: Vector[Char]): TransformationUnit =
    rnd.nextInt(3) match {
      case 0 => // Substr within the guaranteed row length
        val s = rnd.nextInt(9)
        val len = 3 + rnd.nextInt(6)
        Substr(s, math.min(s + len, minLen))
      case 1 => // Split on an injected delimiter; 2 injections => 3 pieces
        Split(delims(rnd.nextInt(delims.size)), 1 + rnd.nextInt(3))
      case _ => // SplitSubstr inside piece 1, which is at least delimFloor long
        val s = rnd.nextInt(5)
        val e = s + 1 + rnd.nextInt(delimFloor - s - 1)
        SplitSubstr(delims(rnd.nextInt(delims.size)), 1, s, e)
    }

  /** A gold transformation: 2 placeholders and 1–2 literals in random order
    * (no two literals adjacent, so literal lengths stay in [1, 5]).
    */
  private def randomTransformation(rnd: Random, minLen: Int, delims: Vector[Char]): Transformation = {
    val ps = Vector.fill(2)(randomPlaceholderUnit(rnd, minLen, delims))
    val nLits = 1 + rnd.nextInt(2)
    val arrangement: Vector[TransformationUnit] = (nLits, rnd.nextInt(3)) match {
      case (1, 0) => Vector(randomLiteral(rnd), ps(0), ps(1))
      case (1, 1) => Vector(ps(0), randomLiteral(rnd), ps(1))
      case (1, _) => Vector(ps(0), ps(1), randomLiteral(rnd))
      case (_, 0) => Vector(randomLiteral(rnd), ps(0), ps(1), randomLiteral(rnd))
      case (_, 1) => Vector(randomLiteral(rnd), ps(0), randomLiteral(rnd), ps(1))
      case (_, _) => Vector(ps(0), randomLiteral(rnd), ps(1), randomLiteral(rnd))
    }
    Transformation(arrangement)
  }

  private def randomSource(rnd: Random, minLen: Int, maxLen: Int, delims: Vector[Char]): String = {
    val len  = minLen + rnd.nextInt(maxLen - minLen + 1)
    val body = Array.fill(len)(BodyAlphabet(rnd.nextInt(BodyAlphabet.size)))
    // Inject each delimiter twice at distinct interior positions >= delimFloor.
    // Sampling from a stride-2 grid guarantees a gap of at least 2 (no split
    // piece is ever empty) without rejection sampling.
    val grid = (delimFloor to len - 2 by 2).toVector
    require(grid.size >= delims.size * 2, s"row of length $len too short for delimiters")
    val positions = rnd.shuffle(grid).take(delims.size * 2)
    for ((p, k) <- positions.zipWithIndex) body(p) = delims(k % delims.size)
    new String(body)
  }

  /** `rows` source rows of length U[`minLen`, `maxLen`], named
    * `Synth-<rows><nameSuffix>`.
    */
  private def generate(
      rows: Int, minLen: Int, maxLen: Int, seed: Long, nameSuffix: String,
  ): JoinDataset = {
    val rnd    = new Random(seed)
    val delims = rnd.shuffle(DelimPool).take(2)
    val golds  = Vector.fill(GoldRules)(randomTransformation(rnd, minLen, delims))
    val source = Vector.fill(rows)(randomSource(rnd, minLen, maxLen, delims))
    JoinDataset.fromGoldRules(s"Synth-$rows$nameSuffix", source, golds, rnd, _.nextInt(golds.size))
  }
}

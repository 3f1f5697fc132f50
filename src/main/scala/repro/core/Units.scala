package repro.core

/** The transformation-unit language of the paper (§2, Definition 1).
  *
  * A unit maps an input string to either a copied piece of the input or a
  * constant literal. Application is partial: a unit whose parameters fall
  * outside the input (substring out of range, split index past the number of
  * pieces) returns `None`, and a transformation containing it does not cover
  * that row.
  *
  * Position conventions (pinned in DESIGN.md §5): `Substr` offsets are
  * 0-based with inclusive start / exclusive end; split indexes are 1-based
  * ("Split(',', 1) … choose the first item", paper §3.2); splits keep empty
  * pieces so delimiter runs and boundary delimiters index deterministically.
  */
sealed trait TransformationUnit extends Serializable with Product {

  /** Applies the unit; `None` when the parameters do not fit the input. */
  def apply(input: String): Option[String]

  /** True when the output depends on the input (Definition 4 needs the
    * non-constant subset of units to define placeholders).
    */
  def isConstant: Boolean = false

  /** Compact single-line rendering, used in reports and as the last
    * tie-break of [[CoverSet.order]]; distinct units render differently.
    */
  def render: String
}

object TransformationUnit {

  private[core] def substr(piece: String, s: Int, e: Int): Option[String] =
    if (s >= 0 && s < e && e <= piece.length) Some(piece.substring(s, e)) else None

  /** The i-th (1-based) piece of `input` split on `c`, keeping empty pieces
    * (like `String.split` with limit -1, but char-exact: no regex surprises
    * for punctuation delimiters); `None` past the last piece.
    */
  private[core] def piece(input: String, i: Int, c: Char): Option[String] = piece(input, i, c, c)

  /** The i-th (1-based) piece of `input` split on every `c1` and every `c2`,
    * found by scanning for delimiters without building the other pieces.
    */
  private[core] def piece(input: String, i: Int, c1: Char, c2: Char): Option[String] = {
    var start = 0 // where the current piece starts
    var k     = 1 // the current piece's 1-based index
    var j     = 0
    while (j < input.length) {
      val ch = input.charAt(j)
      if (ch == c1 || ch == c2) {
        if (k == i) return Some(input.substring(start, j))
        k += 1
        start = j + 1
      }
      j += 1
    }
    if (k == i) Some(input.substring(start)) else None
  }

  /** Backslash-escapes quotes and backslashes for `render`, so renderings
    * stay injective (delimiters and literals may contain either).
    */
  private[core] def esc(c: Char): String = c match {
    case '\'' | '\\' => s"\\$c"
    case c           => c.toString
  }

  /** Quotes a parameter character for `render`. */
  private[core] def q(c: Char): String = s"'${esc(c)}'"
}

import TransformationUnit._

/** `Substr(s, e)` — the input's substring at [s, e). */
final case class Substr(s: Int, e: Int) extends TransformationUnit {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.caseClassHash(this)
  override def apply(input: String): Option[String] = substr(input, s, e)
  override def render: String                       = s"Substr($s,$e)"
}

/** `Split(c, i)` — the i-th (1-based) piece after splitting on `c`. */
final case class Split(c: Char, i: Int) extends TransformationUnit {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.caseClassHash(this)
  override def apply(input: String): Option[String] = piece(input, i, c)
  override def render: String                       = s"Split(${q(c)},$i)"
}

/** `SplitSubstr(c, i, s, e)` — Split(c, i) followed by Substr(s, e). */
final case class SplitSubstr(c: Char, i: Int, s: Int, e: Int) extends TransformationUnit {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.caseClassHash(this)
  override def apply(input: String): Option[String] =
    piece(input, i, c).flatMap(substr(_, s, e))
  override def render: String = s"SplitSubstr(${q(c)},$i,$s,$e)"
}

/** `TwoCharSplitSubstr(c1, c2, i, s, e)` — split on either `c1` or `c2`, take
  * the i-th piece, then Substr(s, e). Together with [[SplitSubstr]] this
  * expresses everything Auto-Join's SplitSplitSubstr can (paper Lemma 1).
  */
final case class TwoCharSplitSubstr(c1: Char, c2: Char, i: Int, s: Int, e: Int)
    extends TransformationUnit {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.caseClassHash(this)
  override def apply(input: String): Option[String] =
    piece(input, i, c1, c2).flatMap(substr(_, s, e))
  override def render: String = s"TwoCharSplitSubstr(${q(c1)},${q(c2)},$i,$s,$e)"
}

/** `Literal(str)` — emits `str` regardless of the input. */
final case class Literal(str: String) extends TransformationUnit {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.caseClassHash(this)
  override def apply(input: String): Option[String] = Some(str)
  override def isConstant: Boolean                  = true
  override def render: String                       = s"Literal('${str.flatMap(esc)}')"
}

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

  /** Splits on every occurrence of any character in `delims`, keeping empty
    * pieces (like `String.split` with limit -1, but char-exact: no regex
    * surprises for punctuation delimiters).
    */
  private[core] def splitKeepEmpty(input: String, delims: Char*): Array[String] = {
    val out   = Array.newBuilder[String]
    var start = 0
    var i     = 0
    while (i < input.length) {
      val ch = input.charAt(i)
      if (delims.contains(ch)) {
        out += input.substring(start, i)
        start = i + 1
      }
      i += 1
    }
    out += input.substring(start)
    out.result()
  }

  private[core] def substr(piece: String, s: Int, e: Int): Option[String] =
    if (s >= 0 && s < e && e <= piece.length) Some(piece.substring(s, e)) else None

  private[core] def piece(input: String, i: Int, delims: Char*): Option[String] = {
    val parts = splitKeepEmpty(input, delims: _*)
    if (i >= 1 && i <= parts.length) Some(parts(i - 1)) else None
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
  override val hashCode: Int = scala.util.hashing.MurmurHash3.productHash(this)
  override def apply(input: String): Option[String] = substr(input, s, e)
  override def render: String                       = s"Substr($s,$e)"
}

/** `Split(c, i)` — the i-th (1-based) piece after splitting on `c`. */
final case class Split(c: Char, i: Int) extends TransformationUnit {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.productHash(this)
  override def apply(input: String): Option[String] = piece(input, i, c)
  override def render: String                       = s"Split(${q(c)},$i)"
}

/** `SplitSubstr(c, i, s, e)` — Split(c, i) followed by Substr(s, e). */
final case class SplitSubstr(c: Char, i: Int, s: Int, e: Int) extends TransformationUnit {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.productHash(this)
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
  override val hashCode: Int = scala.util.hashing.MurmurHash3.productHash(this)
  override def apply(input: String): Option[String] =
    piece(input, i, c1, c2).flatMap(substr(_, s, e))
  override def render: String = s"TwoCharSplitSubstr(${q(c1)},${q(c2)},$i,$s,$e)"
}

/** `Literal(str)` — emits `str` regardless of the input. */
final case class Literal(str: String) extends TransformationUnit {
  override val hashCode: Int = scala.util.hashing.MurmurHash3.productHash(this)
  override def apply(input: String): Option[String] = Some(str)
  override def isConstant: Boolean                  = true
  override def render: String                       = s"Literal('${str.flatMap(esc)}')"
}

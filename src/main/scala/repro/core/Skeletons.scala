package repro.core

/** Transformation skeletons (paper §4.1.1 / §4.1.3).
  *
  * A skeleton is a segmentation of the target into placeholder and literal
  * blocks whose concatenation reproduces the target. Per row we build:
  *
  *   1. the *maximal* skeleton — greedy leftmost-longest segmentation with
  *      maximal-length placeholders, gaps becoming literals;
  *   2. *tokenized* variants — each maximal placeholder optionally re-split
  *      at common natural-language separators (space and punctuation), the
  *      separators becoming literals (Lemma 4 case 1: a common separator may
  *      fall inside a maximal placeholder); the variants are the cross
  *      product of the per-placeholder whole/tokenized choice (the 2^p bound
  *      of §5.1);
  *   3. the all-literal skeleton `<L: target>`.
  *
  * The "placeholder may also act as a literal" choice is not enumerated here;
  * it is absorbed into each placeholder's candidate-unit set, which always
  * contains `Literal(txt)` (§4.1.4 case 5).
  */
object Skeletons {

  /** One block of a skeleton. */
  sealed trait Block extends Serializable { def text: String }

  /** A placeholder block: target text [tStart, tStart+text.length) that
    * occurs in the source.
    */
  final case class P(text: String, tStart: Int) extends Block

  /** A literal block of target text. */
  final case class L(text: String) extends Block

  /** A skeleton: an alternating segmentation of the target. */
  final case class Skeleton(blocks: Vector[Block]) {
    def placeholderCount: Int = blocks.count(_.isInstanceOf[P])
    def render: String = blocks.map {
      case P(t, _) => s"(P: '$t')"
      case L(t)    => s"(L: '$t')"
    }.mkString("<", ", ", ">")
  }

  /** Characters treated as common separators when tokenizing placeholders:
    * whitespace and punctuation, i.e. everything but letters and digits. The
    * paper reports space plus punctuation resolves every real-world case it
    * saw (§4.1.3).
    */
  def isSeparator(c: Char): Boolean = !c.isLetterOrDigit

  /** The greedy maximal segmentation: walk the target left to right, emit the
    * maximal placeholder starting at the cursor when one exists, otherwise a
    * literal character; adjacent literal characters merge into one block.
    *
    * Separators at a placeholder's edges are pushed into the neighbouring
    * literals (the paper's example segments "victor r. kasumba" as
    * <P 'victor r', L '. ', P 'kasumba'>, not <…, L '.', P ' kasumba'>);
    * interior separators stay inside the placeholder, which is what Lemma 4's
    * tokenization then splits on.
    */
  def maximalSkeleton(source: String, target: String): Skeleton = {
    val m      = Placeholders.maxMatchLengths(source, target)
    val blocks = Vector.newBuilder[Block]
    val lit    = new StringBuilder
    var j      = 0
    def flushLit(): Unit = if (lit.nonEmpty) { blocks += L(lit.toString); lit.clear() }
    while (j < target.length) {
      if (m(j) > 0 && !isSeparator(target.charAt(j))) {
        var len = m(j)
        while (len > 1 && isSeparator(target.charAt(j + len - 1))) len -= 1
        flushLit()
        blocks += P(target.substring(j, j + len), j)
        j += len
      } else {
        lit.append(target.charAt(j))
        j += 1
      }
    }
    flushLit()
    Skeleton(blocks.result())
  }

  /** Merges consecutive literal blocks (tokenization and edge-trimming can
    * leave literals adjacent).
    */
  private def mergeLiterals(blocks: Vector[Block]): Vector[Block] =
    blocks.foldLeft(Vector.empty[Block]) {
      case (acc :+ L(a), L(b)) => acc :+ L(a + b)
      case (acc, b)            => acc :+ b
    }

  /** A placeholder is "fused" when it directly abuts literal text with no
    * separator in between — e.g. the lone 'a' of "@u‸a‸lberta.ca" matching a
    * source name by chance. Fused placeholders get an extra demote-to-literal
    * choice in the skeleton cross product (the paper's §5.1 observation that
    * an n-gram occurring in the source may act as either a placeholder or a
    * literal — the 2^p skeleton bound); demotion is tried first because a
    * fused match is usually coincidental, while separator-bounded
    * placeholders (like the initial "f" of "f last") stay placeholders only.
    */
  private def isFused(blocks: Vector[Block], i: Int): Boolean = {
    val left = i > 0 && (blocks(i - 1) match {
      case L(t) => t.nonEmpty && !isSeparator(t.last)
      case _: P => true
    })
    val right = i < blocks.length - 1 && (blocks(i + 1) match {
      case L(t) => t.nonEmpty && !isSeparator(t.head)
      case _: P => true
    })
    left || right
  }

  /** Splits one placeholder block at separator characters; separators become
    * literal blocks. Returns `None` when the block contains no separator
    * (the tokenized variant would equal the original).
    */
  private def tokenize(p: P): Option[Vector[Block]] = {
    if (!p.text.exists(isSeparator)) return None
    val out = Vector.newBuilder[Block]
    var i   = 0
    while (i < p.text.length) {
      val start = i
      if (isSeparator(p.text.charAt(i))) {
        while (i < p.text.length && isSeparator(p.text.charAt(i))) i += 1
        out += L(p.text.substring(start, i))
      } else {
        while (i < p.text.length && !isSeparator(p.text.charAt(i))) i += 1
        out += P(p.text.substring(start, i), p.tStart + start)
      }
    }
    Some(out.result())
  }

  /** All skeletons for one row: cross product of whole/tokenized per maximal
    * placeholder, plus the all-literal skeleton. Skeletons with more than
    * `maxPlaceholders` placeholders are dropped (the paper caps transformation
    * length at 3, §6.2); `maxSkeletons` bounds the cross product for rows
    * with many separable placeholders.
    */
  def all(
      source: String,
      target: String,
      maxPlaceholders: Int = 3,
      maxSkeletons: Int = 64,
  ): Vector[Skeleton] = {
    val base = maximalSkeleton(source, target).blocks
    var variants: Vector[Vector[Block]] = Vector(Vector.empty)
    for ((block, i) <- base.zipWithIndex) {
      val choices: Vector[Vector[Block]] = block match {
        case p: P =>
          val demote = if (isFused(base, i)) Vector(Vector[Block](L(p.text))) else Vector.empty
          demote ++ Vector(Vector[Block](p)) ++ tokenize(p).toVector
        case l: L => Vector(Vector(l))
      }
      variants = variants
        .flatMap(v => choices.map(v ++ _))
        // Prune over-cap partial combos eagerly so a few spurious fused
        // placeholders cannot crowd out the viable demoted variants.
        .filter(_.count(_.isInstanceOf[P]) <= maxPlaceholders)
      if (variants.size > maxSkeletons) variants = variants.take(maxSkeletons)
    }
    val allLiteral = Skeleton(Vector(L(target)))
    val built =
      variants.map(v => Skeleton(mergeLiterals(v))).filter(s => s.placeholderCount >= 1)
    (built :+ allLiteral)
      .filter(_.placeholderCount <= maxPlaceholders)
      .distinct
  }
}

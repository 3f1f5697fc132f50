package repro.core

/** A transformation is a sequence of units whose outputs, each applied to the
  * same source string, are concatenated (paper Definition 2).
  *
  * Equal unit sequences are equal transformations; generation removes
  * duplicates (§4.1.5) on the same key, as interned id sequences
  * ([[Candidates]]).
  */
final case class Transformation(units: Vector[TransformationUnit]) extends Serializable {

  // Cached at construction: hash-keyed lookups (Auto-Join's `distinct`,
  // callers' sets and maps) then need no recursive re-hash.
  override val hashCode: Int = scala.util.hashing.MurmurHash3.caseClassHash(this)

  /** Applies every unit to `input` and concatenates; `None` if any unit is
    * undefined on `input`.
    */
  def apply(input: String): Option[String] = {
    val sb = new StringBuilder
    var i  = 0
    while (i < units.length) {
      units(i)(input) match {
        case Some(out) => sb.append(out)
        case None      => return None
      }
      i += 1
    }
    Some(sb.toString)
  }

  /** True iff this transformation maps `src` exactly onto `tgt`. */
  def covers(src: String, tgt: String): Boolean = apply(src).contains(tgt)

  /** Number of non-constant units — the paper's transformation "length"
    * quality measure (§4.1.2) counts placeholders, not literals.
    */
  def placeholderCount: Int = units.count(!_.isConstant)

  /** True when the output cannot depend on the input. A pure-literal
    * transformation covers at most rows sharing one exact target; the minimum
    * support rules of §5.3 exist to keep these from polluting cover sets.
    */
  def isConstant: Boolean = units.forall(_.isConstant)

  /** Injective rendering; cached because it is the final tie-break of
    * [[CoverSet.order]].
    */
  lazy val render: String = units.map(_.render).mkString("<", ", ", ">")

  override def toString: String = render
}

object Transformation {
  def apply(units: TransformationUnit*): Transformation = Transformation(units.toVector)
}

package repro.core

import repro.core.Skeletons.{L, P, Skeleton}

/** Per-row candidate-transformation generation (paper §4.1.4).
  *
  * For each skeleton of a row, every placeholder block is replaced by its
  * candidate-unit set and every literal block by its `Literal`; the Cartesian
  * product across blocks yields the row's candidate transformations.
  */
object TransformationGen {

  /** The generation caps. The paper's setup (§6.2) is fixed elsewhere: at
    * most [[Skeletons.MaxPlaceholders]] placeholders per transformation, and
    * no TwoCharSplitSubstr in [[UnitCandidates.forPlaceholder]]. These caps
    * are safety bounds for adversarial rows and are counted in
    * [[GenStats.truncated]] when hit.
    */
  final case class GenConfig(
      /** Candidate units per placeholder. The paper's per-row generation
        * volumes (Table 3: ~1-14k per row) imply an effectively O(1)
        * parameter space per placeholder (§5.1); the candidate enumeration is
        * phased so this cap drops the SplitSubstr long tail, not the
        * boundary-delimiter candidates.
        */
      maxCandidatesPerPlaceholder: Int = 64,
      /** Per-row emission cap — a guard against degenerate noisy pairs
        * (digit-heavy false matches) whose Cartesian product explodes.
        * Noisy-flood datasets (the open-data cell) run with much tighter
        * caps, mirroring the paper's observed ~1.2k generated per row there.
        */
      maxTransPerRow: Int = 50_000,
  ) extends Serializable

  /** Generation counters: `generated` counts every product element before any
    * deduplication (the paper's "Generated trans." column of Table 3).
    */
  final case class GenStats(generated: Long, truncated: Long) {
    def +(o: GenStats): GenStats = GenStats(generated + o.generated, truncated + o.truncated)
  }
  object GenStats { val zero: GenStats = GenStats(0L, 0L) }

  /** Candidate unit lists for each block of a skeleton. */
  private def blockCandidates(
      source: String,
      skeleton: Skeleton,
      cfg: GenConfig,
  ): Vector[Vector[TransformationUnit]] =
    skeleton.blocks.map {
      case L(t) => Vector(Literal(t))
      case P(t, _) =>
        UnitCandidates.forPlaceholder(
          source,
          t,
          Placeholders.occurrences(source, t),
          cfg.maxCandidatesPerPlaceholder,
        )
    }

  /** The canonical transformation of a product element: adjacent literals
    * merged into one (a placeholder's `Literal` choice can abut literal
    * blocks), so one output function is one transformation.
    */
  private def canonical(units: Iterator[TransformationUnit]): Transformation = {
    val out = Vector.newBuilder[TransformationUnit]
    var run: Literal = null
    for (u <- units) u match {
      case l: Literal => run = if (run == null) l else Literal(run.str + l.str)
      case _ =>
        if (run != null) { out += run; run = null }
        out += u
    }
    if (run != null) out += run
    Transformation(out.result())
  }

  /** Generates all candidate transformations for one (source, target) pair,
    * in canonical form, feeding each into `sink` (typically a shared dedup
    * hash set). Returns the generation counters for this row; `generated`
    * counts product elements, before literal merging and deduplication.
    */
  def forRow(
      source: String,
      target: String,
      cfg: GenConfig = GenConfig(),
  )(sink: Transformation => Unit): GenStats = {
    var generated = 0L
    var truncated = 0L
    for (skeleton <- Skeletons.all(source, target)) {
      val cands = blockCandidates(source, skeleton, cfg)
      val sizes = cands.map(_.size.toLong)
      val total = sizes.product
      if (total > 0) {
        val emit = math.min(total, cfg.maxTransPerRow - generated)
        if (emit < total) truncated += total - math.max(0, emit)
        if (emit > 0) {
          // Odometer over the Cartesian product — avoids materializing it.
          val idx  = new Array[Int](cands.length)
          var left = emit
          var done = false
          while (!done && left > 0) {
            sink(canonical(Iterator.tabulate(cands.length)(k => cands(k)(idx(k)))))
            generated += 1
            left -= 1
            var k = cands.length - 1
            var carry = true
            while (carry && k >= 0) {
              idx(k) += 1
              if (idx(k) == cands(k).size) { idx(k) = 0; k -= 1 } else carry = false
            }
            if (carry) done = true
          }
        }
      }
    }
    GenStats(generated, truncated)
  }

  /** Convenience: generate + deduplicate for a whole input locally. Returns
    * the distinct transformations and the combined counters.
    */
  def forPairs(
      pairs: Seq[(String, String)],
      cfg: GenConfig = GenConfig(),
  ): (Vector[Transformation], GenStats) = {
    val seen  = scala.collection.mutable.LinkedHashSet.empty[Transformation]
    var stats = GenStats.zero
    for ((s, t) <- pairs)
      stats = stats + forRow(s, t, cfg)(seen.add)
    (seen.toVector, stats)
  }
}

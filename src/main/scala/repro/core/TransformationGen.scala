package repro.core

import repro.core.Skeletons.{L, P}

/** Per-row candidate-transformation generation (paper §4.1.4).
  *
  * For each skeleton of a row, every placeholder block is replaced by its
  * candidate-unit set and every literal block by its `Literal`; the Cartesian
  * product across blocks yields the row's candidate transformations. Units
  * are interned and candidates deduplicated as id sequences ([[Candidates]]).
  */
object TransformationGen {

  /** The generation caps. The paper's setup (§6.2) is fixed elsewhere: at
    * most [[Skeletons.MaxPlaceholders]] placeholders per transformation, and
    * no TwoCharSplitSubstr in [[UnitCandidates.forPlaceholder]]. These caps
    * are safety bounds for adversarial rows. Only `maxTransPerRow` counts
    * what it cuts, in [[GenStats.truncated]]; the units that
    * `maxCandidatesPerPlaceholder` cuts, like the skeletons that
    * [[Skeletons.MaxSkeletons]] cuts, are not counted anywhere.
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

  /** Generates the distinct candidate transformations of a whole input, in
    * canonical form: adjacent literals merged into one (a placeholder's
    * `Literal` choice can abut literal blocks), so one output function is
    * one candidate. Candidates keep their first-occurrence order: by row,
    * then skeleton, then position in the skeleton's Cartesian product.
    * `generated` counts product elements, before literal merging and
    * deduplication.
    */
  private[core] def generate(pairs: Seq[(String, String)], cfg: GenConfig): (Candidates, GenStats) = {
    val b     = new Candidates.Builder(distinct = true)
    var stats = GenStats.zero
    for ((s, t) <- pairs) stats = stats + forRow(b, s, t, cfg)
    (b.result(), stats)
  }

  /** Adds one (source, target) pair's candidates to `b`; returns its counters. */
  private def forRow(b: Candidates.Builder, source: String, target: String, cfg: GenConfig): GenStats = {
    var generated = 0L
    var truncated = 0L
    // Skeletons of one row share placeholders, so each text's units are
    // enumerated once per row.
    val byText = scala.collection.mutable.HashMap.empty[String, Array[Int]]
    for (skeleton <- Skeletons.all(source, target)) {
      val cands = skeleton.blocks.iterator.map {
        case L(t) => Array(b.intern(Literal(t)))
        case P(t, _) =>
          byText.getOrElseUpdate(t,
            UnitCandidates
              .forPlaceholder(source, t, Placeholders.occurrences(source, t), cfg.maxCandidatesPerPlaceholder)
              .iterator.map(b.intern).toArray)
      }.toArray
      val total = cands.iterator.map(_.length.toLong).product
      if (total > 0) {
        val emit = math.min(total, cfg.maxTransPerRow - generated)
        if (emit < total) truncated += total - math.max(0, emit)
        if (emit > 0) {
          // Odometer over the Cartesian product, writing each element's
          // canonical id sequence into `out`.
          val idx  = new Array[Int](cands.length)
          val out  = new Array[Int](cands.length)
          var left = emit
          var done = false
          while (!done && left > 0) {
            var len = 0
            var run = -1 // the literal being merged, or -1
            var k   = 0
            while (k < cands.length) {
              val u = cands(k)(idx(k))
              if (b.isLiteral(u)) run = if (run < 0) u else b.concat(run, u)
              else {
                if (run >= 0) { out(len) = run; len += 1; run = -1 }
                out(len) = u
                len += 1
              }
              k += 1
            }
            if (run >= 0) { out(len) = run; len += 1 }
            b.add(out, len)
            generated += 1
            left -= 1
            k = cands.length - 1
            var carry = true
            while (carry && k >= 0) {
              idx(k) += 1
              if (idx(k) == cands(k).length) { idx(k) = 0; k -= 1 } else carry = false
            }
            if (carry) done = true
          }
        }
      }
    }
    GenStats(generated, truncated)
  }

  /** The distinct candidates of [[generate]] as transformations, in order,
    * with the combined counters.
    */
  def forPairs(
      pairs: Seq[(String, String)],
      cfg: GenConfig = GenConfig(),
  ): (Vector[Transformation], GenStats) = {
    val (cands, stats) = generate(pairs, cfg)
    (Vector.tabulate(cands.size)(cands.transformation), stats)
  }
}

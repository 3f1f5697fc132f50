package repro.autojoin

import repro.core._

/** Re-implementation of the Auto-Join baseline (Zhu, He, Chaudhuri, VLDB
  * 2017) as described in the paper's §3.2 / §5.2.
  *
  * Auto-Join samples small row subsets and, per subset, searches for a single
  * transformation covering every row in the subset: it enumerates every unit
  * × parameter assignment (the *blind* search the paper contrasts with its
  * evidence-driven one), ranks candidates by the average length of target
  * text covered, applies the best, and recurses on the uncovered text to the
  * left and right of the match, backtracking when a branch fails.
  *
  * The search is exponential in practice; the paper caps it at 650 000 s per
  * table. We expose the same role through an explicit node/time budget —
  * results report whether the budget was exhausted.
  */
object AutoJoin {

  /** Rows per sampled subset: 2, the paper's experimental setup (§6.2). */
  final val SubsetSize = 2

  /** Subsets sampled per table: 6 (§6.2). */
  final val NumSubsets = 6

  /** Depth of the recursion tree: 3 (§6.2). */
  final val MaxDepth = 3

  /** The budget caps the number of recursion nodes and wall-clock
    * milliseconds across one table.
    */
  final case class AutoJoinConfig(
      maxNodes: Long = 2_000_000L,
      timeLimitMs: Long = 600_000L,
  )

  final case class AutoJoinResult(
      transformations: Vector[Transformation],
      elapsedMs: Long,
      budgetExhausted: Boolean,
  )

  private final class Budget(maxNodes: Long, deadlineNanos: Long) {
    var nodes: Long           = 0L
    var exhausted: Boolean    = false
    def spend(): Boolean = {
      nodes += 1
      if (nodes > maxNodes || System.nanoTime() >= deadlineNanos)
        exhausted = true
      !exhausted
    }
  }

  /** Exhaustively enumerates unit × parameter assignments — the baseline's
    * blind search space (§5.2: u·l^z choices), over the units of §6.2 (no
    * TwoCharSplitSubstr). Literal candidates are the substrings common to
    * every remaining target segment.
    */
  private def enumerateUnits(
      srcs: IndexedSeq[String],
      segments: IndexedSeq[String],
  ): Vector[TransformationUnit] = {
    val out    = Vector.newBuilder[TransformationUnit]
    val maxLen = srcs.map(_.length).min
    val chars  = srcs.flatMap(_.toSeq).distinct
    // Split indexes only reach count(c)+1 pieces; using the per-character
    // bound keeps the enumeration at the baseline's u·l^z size rather than
    // a gratuitous l^(z+1).
    def pieces(c: Char): Int = 1 + srcs.map(_.count(_ == c)).max

    for (s <- 0 until maxLen; e <- (s + 1) to maxLen) out += Substr(s, e)
    for (c <- chars; i <- 1 to pieces(c)) out += Split(c, i)
    for {
      c <- chars
      i <- 1 to pieces(c)
      s <- 0 until maxLen
      e <- (s + 1) to maxLen
    } out += SplitSubstr(c, i, s, e)
    val first = segments.headOption.getOrElse("")
    val commons = for {
      s <- 0 until first.length
      e <- (s + 1) to first.length
      sub = first.substring(s, e)
      if segments.forall(_.contains(sub))
    } yield Literal(sub)
    commons.distinct.foreach(out += _)
    out.result()
  }

  /** Recursive back-tracking search for a unit sequence producing every
    * segment from its source. Returns the unit sequence or None.
    */
  private def search(
      srcs: IndexedSeq[String],
      segments: IndexedSeq[String],
      depth: Int,
      budget: Budget,
  ): Option[Vector[TransformationUnit]] = {
    if (segments.forall(_.isEmpty)) return Some(Vector.empty)
    if (depth > MaxDepth || !budget.spend()) return None

    // Rank all covering candidates by average covered target length, the
    // greedy order of §3.2; constants rank after copies at equal length.
    val candidates = enumerateUnits(srcs, segments).flatMap { u =>
      val outs = srcs.map(u(_))
      if (outs.forall(_.exists(o => o.nonEmpty)) &&
          outs.zip(segments).forall { case (o, seg) => seg.contains(o.get) })
        Some((u, outs.map(_.get)))
      else None
    }
    val ranked = candidates.sortBy { case (u, outs) =>
      (-outs.map(_.length).sum.toDouble / outs.size, if (u.isConstant) 1 else 0, u.render)
    }

    for ((u, outs) <- ranked) {
      if (budget.exhausted) return None
      val splits = segments.zip(outs).map { case (seg, o) =>
        val i = seg.indexOf(o)
        (seg.substring(0, i), seg.substring(i + o.length))
      }
      val (lefts, rights) = (splits.map(_._1), splits.map(_._2))
      val leftRes =
        if (lefts.forall(_.isEmpty)) Some(Vector.empty[TransformationUnit])
        else search(srcs, lefts, depth + 1, budget)
      leftRes match {
        case Some(lu) =>
          val rightRes =
            if (rights.forall(_.isEmpty)) Some(Vector.empty[TransformationUnit])
            else search(srcs, rights, depth + 1, budget)
          rightRes match {
            case Some(ru) => return Some(lu ++ Vector(u) ++ ru)
            case None     => // backtrack to next ranked unit
          }
        case None => // backtrack
      }
    }
    None
  }

  /** Finds a single transformation covering all rows of one subset. */
  def findForSubset(
      subset: IndexedSeq[(String, String)],
      cfg: AutoJoinConfig = AutoJoinConfig(),
  ): (Option[Transformation], Boolean) = {
    val budget = new Budget(cfg.maxNodes, System.nanoTime() + cfg.timeLimitMs * 1000000L)
    (find(subset, budget), budget.exhausted)
  }

  private def find(subset: IndexedSeq[(String, String)], budget: Budget): Option[Transformation] =
    search(subset.map(_._1), subset.map(_._2), 1, budget).map(units => Transformation(units))

  /** Full baseline run: [[NumSubsets]] random subsets, one transformation
    * attempt each; the union of the found transformations is the returned
    * "covering set" (the paper: "we took all those transformations returned
    * by auto-join"). A shared budget spans the whole table, mirroring the
    * paper's per-table time cap.
    */
  def run(
      pairs: IndexedSeq[(String, String)],
      cfg: AutoJoinConfig = AutoJoinConfig(),
      seed: Long = 7L,
  ): AutoJoinResult = {
    val t0     = System.nanoTime()
    val rnd    = new scala.util.Random(seed)
    val budget = new Budget(cfg.maxNodes, t0 + cfg.timeLimitMs * 1000000L)
    val found  = Vector.newBuilder[Transformation]
    if (pairs.nonEmpty) {
      for (_ <- 1 to NumSubsets if !budget.exhausted) {
        // Sample rows without replacement — a degenerate single-row subset
        // would always be "covered" by a literal of its own target.
        val subset = rnd
          .shuffle(pairs.indices.toVector)
          .take(math.min(SubsetSize, pairs.size))
          .map(pairs(_))
        find(subset, budget).foreach(found += _)
      }
    }
    AutoJoinResult(found.result().distinct, (System.nanoTime() - t0) / 1000000L, budget.exhausted)
  }
}

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

  /** `subsetSize`/`numSubsets` follow the paper's experimental setup (2 and 6,
    * §6.2). `maxDepth` is the tree depth (3, §6.2). The budget caps the
    * number of recursion nodes and wall-clock milliseconds across one table.
    */
  final case class AutoJoinConfig(
      subsetSize: Int = 2,
      numSubsets: Int = 6,
      maxDepth: Int = 3,
      units: UnitCandidates.UnitConfig = UnitCandidates.UnitConfig(),
      maxNodes: Long = 2_000_000L,
      timeLimitMs: Long = 600_000L,
  )

  final case class AutoJoinResult(
      transformations: Vector[Transformation],
      coverSet: Vector[CoverSet.Chosen],
      nRows: Int,
      elapsedMs: Long,
      budgetExhausted: Boolean,
  ) {
    def topCoverage: Double =
      if (coverSet.isEmpty || nRows == 0) 0.0
      else coverSet.map(_.covered.length).max.toDouble / nRows
    def setCoverage: Double =
      CoverSet.unionCoverage(coverSet, nRows).toDouble / math.max(1, nRows)
  }

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
    * blind search space (§5.2: u·l^z choices). Literal candidates are the
    * substrings common to every remaining target segment.
    */
  private def enumerateUnits(
      srcs: IndexedSeq[String],
      segments: IndexedSeq[String],
      cfg: AutoJoinConfig,
  ): Vector[TransformationUnit] = {
    val out    = Vector.newBuilder[TransformationUnit]
    val maxLen = srcs.map(_.length).min
    val chars  = srcs.flatMap(_.toSeq).distinct
    // Split indexes only reach count(c)+1 pieces; using the per-character
    // bound keeps the enumeration at the baseline's u·l^z size rather than
    // a gratuitous l^(z+1).
    def pieces(c: Char): Int = 1 + srcs.map(_.count(_ == c)).max

    if (cfg.units.useSubstr)
      for (s <- 0 until maxLen; e <- (s + 1) to maxLen) out += Substr(s, e)
    if (cfg.units.useSplit)
      for (c <- chars; i <- 1 to pieces(c)) out += Split(c, i)
    if (cfg.units.useSplitSubstr)
      for {
        c <- chars
        i <- 1 to pieces(c)
        s <- 0 until maxLen
        e <- (s + 1) to maxLen
      } out += SplitSubstr(c, i, s, e)
    if (cfg.units.useTwoCharSplitSubstr)
      for {
        a <- chars.indices; b <- (a + 1) until chars.length
        i <- 1 to (pieces(chars(a)) + pieces(chars(b)) - 1)
        s <- 0 until maxLen; e <- (s + 1) to maxLen
      } out += TwoCharSplitSubstr(chars(a), chars(b), i, s, e)
    if (cfg.units.useLiteral) {
      val first = segments.headOption.getOrElse("")
      val commons = for {
        s <- 0 until first.length
        e <- (s + 1) to first.length
        sub = first.substring(s, e)
        if segments.forall(_.contains(sub))
      } yield Literal(sub)
      commons.distinct.foreach(out += _)
    }
    out.result()
  }

  /** Recursive back-tracking search for a unit sequence producing every
    * segment from its source. Returns the unit sequence or None.
    */
  private def search(
      srcs: IndexedSeq[String],
      segments: IndexedSeq[String],
      depth: Int,
      cfg: AutoJoinConfig,
      budget: Budget,
  ): Option[Vector[TransformationUnit]] = {
    if (segments.forall(_.isEmpty)) return Some(Vector.empty)
    if (depth > cfg.maxDepth || !budget.spend()) return None

    // Rank all covering candidates by average covered target length, the
    // greedy order of §3.2; constants rank after copies at equal length.
    val candidates = enumerateUnits(srcs, segments, cfg).flatMap { u =>
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
        else search(srcs, lefts, depth + 1, cfg, budget)
      leftRes match {
        case Some(lu) =>
          val rightRes =
            if (rights.forall(_.isEmpty)) Some(Vector.empty[TransformationUnit])
            else search(srcs, rights, depth + 1, cfg, budget)
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
    val res = search(subset.map(_._1), subset.map(_._2), 1, cfg, budget)
      .map(units => Transformation(units))
    (res, budget.exhausted)
  }

  /** Full baseline run: `numSubsets` random subsets, one transformation
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
    val t0   = System.nanoTime()
    val rnd  = new scala.util.Random(seed)
    val deadline = t0 + cfg.timeLimitMs * 1000000L
    var exhausted = false
    val found = Vector.newBuilder[Transformation]
    if (pairs.nonEmpty) {
      for (_ <- 1 to cfg.numSubsets if !exhausted) {
        // Sample rows without replacement — a degenerate single-row subset
        // would always be "covered" by a literal of its own target.
        val subset = rnd
          .shuffle(pairs.indices.toVector)
          .take(math.min(cfg.subsetSize, pairs.size))
          .map(pairs(_))
        val remainingMs = math.max(1L, (deadline - System.nanoTime()) / 1000000L)
        val (t, ex) = findForSubset(subset, cfg.copy(timeLimitMs = remainingMs))
        exhausted ||= ex
        t.foreach(found += _)
      }
    }
    val distinct = found.result().distinct
    val filter   = new Coverage.UnitFilter(Coverage.rowStates(pairs))
    val cover    = distinct.map(t => (t, filter.covered(t))).collect {
      case (t, c) if c.nonEmpty => CoverSet.Chosen(t, c, c.length)
    }
    AutoJoinResult(
      distinct,
      cover,
      pairs.size,
      (System.nanoTime() - t0) / 1000000L,
      exhausted,
    )
  }
}

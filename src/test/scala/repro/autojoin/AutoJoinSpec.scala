package repro.autojoin

import repro.SparkSpec
import repro.core._
import AutoJoin._

/** The Auto-Join baseline (paper §3.2): recursive back-tracking search. */
class AutoJoinSpec extends SparkSpec {

  private val fig1Subset = Vector(
    ("prus-czarnecki, andrzej", "a prus-czarnecki"),
    ("bowling, michael", "m bowling"),
    ("gosgnach, simon", "s gosgnach"),
  )

  test("paper §3.2 example: finds a transformation for rows 4-6 of Figure 1") {
    val (t, exhausted) = findForSubset(fig1Subset)
    assert(!exhausted)
    assert(t.isDefined, "Auto-Join should find a covering transformation")
    for ((s, g) <- fig1Subset) assert(t.get.covers(s, g), s"${t.get.render} on $s")
  }

  test("found transformation generalizes like the paper's") {
    val (t, _) = findForSubset(fig1Subset)
    assert(t.get.covers("rafiei, davood", "d rafiei"))
  }

  test("single-unit transformation found directly") {
    val subset = Vector(("ab,cd", "ab"), ("xy,zw", "xy"))
    val (t, _) = findForSubset(subset)
    assert(t.isDefined && subset.forall { case (s, g) => t.get.covers(s, g) })
  }

  test("no transformation exists -> None") {
    // Targets contain characters absent from the sources and from each other,
    // so no literal or copy can cover both rows.
    val subset = Vector(("aaa", "x"), ("bbb", "y"))
    val (t, _) = findForSubset(subset)
    assert(t.isEmpty)
  }

  test("mixed-rule subset fails (the assumption the paper relaxes)") {
    // One row follows "swap around comma", the other "take first piece";
    // no single transformation covers both, which is exactly Auto-Join's
    // brittleness the paper's approach avoids.
    val subset = Vector(("abq,cdz", "cdz-abq"), ("efk,ghp", "efk"))
    val (t, exhausted) = findForSubset(subset, AutoJoinConfig(maxNodes = 200_000))
    assert(t.isEmpty || !exhausted) // must terminate; normally finds nothing
    for (tr <- t; (s, g) <- subset) assert(tr.covers(s, g))
  }

  test("budget exhaustion is reported") {
    val subset = Vector(
      ("abcdefghij0123456789", "ab-cd-ef-gh-ij"),
      ("klmnopqrst9876543210", "kl-mn-op-qr-st"),
    )
    val (_, exhausted) = findForSubset(subset, AutoJoinConfig(maxNodes = 3))
    assert(exhausted)
  }

  test("a spent deadline stops the search at its first node") {
    assert(findForSubset(fig1Subset, AutoJoinConfig(timeLimitMs = 0)) == ((None, true)))
  }

  test("run: full table driver returns coverage over all pairs") {
    val pairs = Vector(
      ("rafiei, davood", "d rafiei"),
      ("bowling, michael", "m bowling"),
      ("gosgnach, simon", "s gosgnach"),
      ("walker, james", "j walker"),
    )
    val res     = AutoJoin.run(pairs)
    val filter  = new Coverage.CandidateFilter(Candidates.of(res.transformations), Coverage.rowStates(pairs))
    val covered = res.transformations.indices.map(filter.covered)
    assert(covered.map(_.length).max == 4) // one rule generates all rows
    assert(CoverSet.unionCoverage(covered, 4) == 4)
    assert(!res.budgetExhausted)
  }

  test("run: deterministic under a fixed seed") {
    val pairs = Vector(("ab,cd", "cd"), ("ef,gh", "gh"), ("ij,kl", "kl"))
    val a = AutoJoin.run(pairs, seed = 3L)
    val b = AutoJoin.run(pairs, seed = 3L)
    assert(a.transformations == b.transformations)
  }

  test("run on empty input") {
    val res = AutoJoin.run(Vector.empty)
    assert(res.transformations.isEmpty && !res.budgetExhausted)
  }

  test("run: one node budget spans every subset of the table") {
    // Split(' ', 1) covers every subset at its first search node (the target
    // lengths differ, so no Substr ties with it): each subset alone fits in
    // one node, six subsets together do not.
    val pairs = Vector(("alpha beta", "alpha"), ("gam delta", "gam"), ("rhox kappa", "rhox"))
    val one   = AutoJoinConfig(maxNodes = 1)
    for (subset <- pairs.combinations(2))
      assert(findForSubset(subset, one) == ((Some(Transformation(Split(' ', 1))), false)))
    val res = AutoJoin.run(pairs, one)
    assert(res.budgetExhausted)
    assert(res.transformations.size == 1)
  }

  test("run respects the wall-clock budget") {
    // Targets reuse source characters heavily but need more than MaxDepth
    // levels to assemble, so the back-tracking search grinds.
    val pairs = Vector(
      ("abcdefghijklmnopqrst", "ab-cd-ef-gh-ij-kl"),
      ("ponmlkjihgfedcba4321", "po-nm-lk-ji-hg-fe"),
    )
    val t0  = System.nanoTime()
    val res = AutoJoin.run(pairs, AutoJoinConfig(timeLimitMs = 500, maxNodes = Long.MaxValue / 4))
    val ms  = (System.nanoTime() - t0) / 1000000L
    // Generous bound: the deadline is checked once per node and node cost is
    // JIT-state-dependent, so only gross overruns should fail here.
    assert(ms < 60_000, s"took ${ms}ms, budget was 500ms")
    assert(res.budgetExhausted || res.transformations.isEmpty)
  }
}

package repro.core

import repro.SparkSpec
import TransformationGen._

/** Candidate-transformation generation (paper §4.1.4) and its counters. */
class TransformationGenSpec extends SparkSpec {

  test("paper §4.1.4 example: Cartesian product over Substr and Literal candidates") {
    // Row ("Victor Robbie Kasumba", "Victor R. Kasumba"), skeleton
    // [(P 'Victor R'), (L '. '), (P 'Kasumba')]: among the default units'
    // products are the four paper transformations over Substr and Literal,
    // each in canonical form (adjacent literals merged).
    val src = "Victor Robbie Kasumba"
    val buf = scala.collection.mutable.LinkedHashSet.empty[Transformation]
    forRow(src, "Victor R. Kasumba")(buf.add)
    val expected = Set(
      Transformation(Literal("Victor R. Kasumba")),
      Transformation(Literal("Victor R. "), Substr(14, 21)),
      Transformation(Substr(0, 8), Literal(". Kasumba")),
      Transformation(Substr(0, 8), Literal(". "), Substr(14, 21)),
    )
    assert(expected.subsetOf(buf.toSet))
  }

  test("every generated transformation covers its generating row") {
    val rows = Seq(
      ("bowling, michael", "m bowling"),
      ("rafiei, davood", "d rafiei"),
      ("victor robbie kasumba", "victor r. kasumba"),
    )
    for ((s, t) <- rows) {
      val buf = scala.collection.mutable.ArrayBuffer.empty[Transformation]
      forRow(s, t)(buf += _)
      assert(buf.nonEmpty)
      for (tr <- buf) assert(tr.covers(s, t), s"${tr.render} should cover ($s, $t)")
    }
  }

  test("generated counter counts pre-dedup emissions") {
    val buf  = scala.collection.mutable.ArrayBuffer.empty[Transformation]
    val stat = forRow("ab cd", "ab-cd")(buf += _)
    assert(stat.generated == buf.size)
  }

  test("no emitted transformation has two adjacent Literals") {
    val rows = Seq(
      ("Victor Robbie Kasumba", "Victor R. Kasumba"),
      ("bowling, michael", "m.bowling@ualberta.ca"),
      ("www.example.org", "example.com"),
      ("12:30:45", "12h30-150"),
    )
    for ((s, t) <- rows) {
      var n = 0
      forRow(s, t) { tr =>
        n += 1
        val adjacent = tr.units.zip(tr.units.drop(1)).exists {
          case (_: Literal, _: Literal) => true
          case _                        => false
        }
        assert(!adjacent, tr.render)
      }
      assert(n > 0)
    }
  }

  test("literal splittings of one output are one candidate; generated still counts each") {
    // "ab-cd": Literal("ab") for the placeholder plus the literal '-' and the
    // demoted "ab-cd" skeleton all yield <Literal('ab-cd')> once merged.
    val buf  = scala.collection.mutable.ArrayBuffer.empty[Transformation]
    val stat = forRow("ab cd", "ab-cd")(buf += _)
    assert(buf.count(_ == Transformation(Literal("ab-cd"))) > 1)
    assert(stat.generated == buf.size)
    assert(forPairs(Seq(("ab cd", "ab-cd")))._1.count(_.isConstant) == 1)
  }

  test("forPairs dedups across rows") {
    // Two rows generated by the same rule produce overlapping candidates.
    val pairs = Seq(("bowling, michael", "michael"), ("rafiei, davood", "davood"))
    val (distinct, stats) = forPairs(pairs)
    assert(stats.generated > distinct.size) // duplicates existed
    assert(distinct.distinct.size == distinct.size)
    // The shared rule survives dedup and covers both rows.
    assert(distinct.exists(t => pairs.forall { case (s, g) => t.covers(s, g) }))
  }

  test("maxTransPerRow truncates and reports") {
    val cfg  = GenConfig(maxTransPerRow = 5)
    var n    = 0
    val stat = forRow("victor robbie kasumba", "victor r. kasumba", cfg)(_ => n += 1)
    assert(n <= 5)
    assert(stat.generated <= 5)
    assert(stat.truncated > 0)
  }

  test("placeholder cap limits transformation length") {
    // Four placeholders in the maximal skeleton; demoting the fused "cd" or
    // "ef" to a literal gives skeletons of three or two, and the cap drops
    // the skeleton of four.
    val pairs = Seq(("ab cd ef gh", "ab-cdX-efY-gh"))
    val (distinct, _) = forPairs(pairs)
    assert(distinct.forall(_.placeholderCount <= Skeletons.MaxPlaceholders))
    assert(distinct.exists(_.placeholderCount == Skeletons.MaxPlaceholders))
  }

  test("the all-literal transformation is generated") {
    val (distinct, _) = forPairs(Seq(("abc", "abc-x")))
    assert(distinct.contains(Transformation(Literal("abc-x"))))
  }

  test("GenStats combine additively") {
    assert(GenStats(3, 1) + GenStats(4, 0) == GenStats(7, 1))
    assert(GenStats.zero + GenStats(2, 2) == GenStats(2, 2))
  }
}

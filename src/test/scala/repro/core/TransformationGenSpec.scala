package repro.core

import org.scalacheck.Gen
import repro.{PropHelper, SparkSpec}
import repro.core.Skeletons.{L, P}
import repro.data.SynthJoin
import TransformationGen._

/** Candidate-transformation generation (paper §4.1.4) and its counters. */
class TransformationGenSpec extends SparkSpec with PropHelper {
  import TransformationGenSpec._

  test("paper §4.1.4 example: Cartesian product over Substr and Literal candidates") {
    // Row ("Victor Robbie Kasumba", "Victor R. Kasumba"), skeleton
    // [(P 'Victor R'), (L '. '), (P 'Kasumba')]: among the default units'
    // products are the four paper transformations over Substr and Literal,
    // each in canonical form (adjacent literals merged).
    val src = "Victor Robbie Kasumba"
    val (distinct, _) = forPairs(Seq((src, "Victor R. Kasumba")))
    val expected = Set(
      Transformation(Literal("Victor R. Kasumba")),
      Transformation(Literal("Victor R. "), Substr(14, 21)),
      Transformation(Substr(0, 8), Literal(". Kasumba")),
      Transformation(Substr(0, 8), Literal(". "), Substr(14, 21)),
    )
    assert(expected.subsetOf(distinct.toSet))
  }

  test("every generated transformation covers its generating row") {
    val rows = Seq(
      ("bowling, michael", "m bowling"),
      ("rafiei, davood", "d rafiei"),
      ("victor robbie kasumba", "victor r. kasumba"),
    )
    for ((s, t) <- rows) {
      val (distinct, _) = forPairs(Seq((s, t)))
      assert(distinct.nonEmpty)
      for (tr <- distinct) assert(tr.covers(s, t), s"${tr.render} should cover ($s, $t)")
    }
  }

  test("generated counter counts pre-dedup emissions") {
    // One emission per element of each skeleton's Cartesian product.
    val (s, t)              = ("ab cd", "ab-cd")
    val (distinct, stat)    = forPairs(Seq((s, t)))
    val products = Skeletons.all(s, t).map(_.blocks.map {
      case L(_)      => 1L
      case P(txt, _) => UnitCandidates.forPlaceholder(s, txt, Placeholders.occurrences(s, txt)).size.toLong
    }.product)
    assert(stat.generated == products.sum)
    assert(stat.generated > distinct.size)
  }

  test("no emitted transformation has two adjacent Literals") {
    val rows = Seq(
      ("Victor Robbie Kasumba", "Victor R. Kasumba"),
      ("bowling, michael", "m.bowling@ualberta.ca"),
      ("www.example.org", "example.com"),
      ("12:30:45", "12h30-150"),
    )
    for ((s, t) <- rows) {
      val (distinct, _) = forPairs(Seq((s, t)))
      assert(distinct.nonEmpty)
      for (tr <- distinct) {
        val adjacent = tr.units.zip(tr.units.drop(1)).exists {
          case (_: Literal, _: Literal) => true
          case _                        => false
        }
        assert(!adjacent, tr.render)
      }
    }
  }

  test("literal splittings of one output are one candidate; generated still counts each") {
    // "ab-cd": Literal("ab") for the placeholder plus the literal '-' and the
    // demoted "ab-cd" skeleton all yield <Literal('ab-cd')> once merged.
    val row           = ("ab cd", "ab-cd")
    val emitted       = referenceEmissions(row._1, row._2, GenConfig())
    val (distinct, s) = forPairs(Seq(row))
    assert(emitted.count(_ == Transformation(Literal("ab-cd"))) > 1)
    assert(s.generated == emitted.size)
    assert(distinct.count(_.isConstant) == 1)
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
    val row           = ("victor robbie kasumba", "victor r. kasumba")
    val full          = forPairs(Seq(row))._2
    val (distinct, s) = forPairs(Seq(row), GenConfig(maxTransPerRow = 5))
    assert(distinct.size <= 5)
    assert(s.generated == 5)
    assert(s.truncated > 0)
    assert(s.generated + s.truncated == full.generated)
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

  test("forPairs equals the transformation-level reference, element for element (property)") {
    val tight  = GenConfig(maxCandidatesPerPlaceholder = 3, maxTransPerRow = 7)
    val inputs = Gen.zip(DiscoverySpec.smallInputs, Gen.oneOf(GenConfig(), tight))
    forAllSampled(inputs, samples = 60) { case (pairs, cfg) =>
      assert(forPairs(pairs, cfg) == reference(pairs, cfg))
    }
    for (seed <- Seq(1L, 2L)) {
      val gold = SynthJoin.synth(50, seed).goldPairStrings
      assert(forPairs(gold) == reference(gold, GenConfig()), s"Synth-50 seed $seed")
    }
  }
}

object TransformationGenSpec {

  /** Every Cartesian-product element of one row, in canonical form and in
    * odometer order, at most `cfg.maxTransPerRow` of them: generation as a
    * transformation-level odometer, without interning.
    */
  def referenceRow(source: String, target: String, cfg: GenConfig)(sink: Transformation => Unit): GenStats = {
    def canonical(units: Seq[TransformationUnit]): Transformation = {
      val out      = Vector.newBuilder[TransformationUnit]
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
    var generated = 0L
    var truncated = 0L
    for (skeleton <- Skeletons.all(source, target)) {
      val cands = skeleton.blocks.map {
        case L(t) => Vector(Literal(t))
        case P(t, _) =>
          UnitCandidates.forPlaceholder(source, t, Placeholders.occurrences(source, t), cfg.maxCandidatesPerPlaceholder)
      }
      val total = cands.map(_.size.toLong).product
      val emit  = math.min(total, cfg.maxTransPerRow - generated)
      if (emit < total) truncated += total - math.max(0, emit)
      val idx = new Array[Int](cands.length)
      var n   = 0L
      while (n < emit) {
        sink(canonical(cands.indices.map(k => cands(k)(idx(k)))))
        generated += 1
        n += 1
        var k = cands.length - 1
        while (k >= 0 && { idx(k) += 1; idx(k) == cands(k).size }) { idx(k) = 0; k -= 1 }
      }
    }
    GenStats(generated, truncated)
  }

  def referenceEmissions(source: String, target: String, cfg: GenConfig): Vector[Transformation] = {
    val out = Vector.newBuilder[Transformation]
    referenceRow(source, target, cfg)(out += _)
    out.result()
  }

  /** The reference over a whole input, deduplicated in a `LinkedHashSet`. */
  def reference(pairs: Seq[(String, String)], cfg: GenConfig): (Vector[Transformation], GenStats) = {
    val seen  = scala.collection.mutable.LinkedHashSet.empty[Transformation]
    var stats = GenStats.zero
    for ((s, t) <- pairs) stats = stats + referenceRow(s, t, cfg)(seen.add)
    (seen.toVector, stats)
  }
}

package repro.core

import org.scalacheck.Gen
import repro.{PropHelper, SparkSpec}

/** Placeholder detection (paper Definition 4, §4.1.3). */
class PlaceholdersSpec extends SparkSpec with PropHelper {
  import Placeholders._

  test("maxMatchLengths: every prefix that occurs in the source is counted") {
    val m = maxMatchLengths("abcdef", "cdex")
    assert(m(0) == 3) // "cde" occurs
    assert(m(1) == 2) // "de"
    assert(m(2) == 1) // "e"
    assert(m(3) == 0) // "x" absent
  }

  test("maxMatchLengths satisfies m(j+1) >= m(j) - 1 (property)") {
    val gen = for {
      s <- Gen.listOfN(12, Gen.oneOf('a', 'b', 'c')).map(_.mkString)
      t <- Gen.listOfN(8, Gen.oneOf('a', 'b', 'c', 'd')).map(_.mkString)
    } yield (s, t)
    forAllSampled(gen) { case (s, t) =>
      val m = maxMatchLengths(s, t)
      for (j <- 0 until m.length - 1) assert(m(j + 1) >= m(j) - 1)
    }
  }

  test("occurrences finds all overlapping matches") {
    assert(occurrences("aaaa", "aa") == Vector(0, 1, 2))
    assert(occurrences("abcabc", "abc") == Vector(0, 3))
    assert(occurrences("abc", "x") == Vector.empty)
    assert(occurrences("abc", "") == Vector.empty)
  }

  /** The placeholder blocks of the maximal skeleton, as (tStart, text). */
  private def placeholders(src: String, tgt: String): Vector[(Int, String)] =
    Skeletons.maximalSkeleton(src, tgt).blocks.collect { case Skeletons.P(t, j) => (j, t) }

  test("paper §4.1 example: michael and bowling are placeholders of the email") {
    val src = "bowling, michael"
    val tgt = "michael.bowling@ualberta.ca"
    val texts = placeholders(src, tgt).map(_._2)
    assert(texts.contains("michael"))
    assert(texts.contains("bowling"))
  }

  test("maximal placeholders are not contained in one another") {
    // Each placeholder block runs to the longest text at its start that
    // occurs in the source (less trailing separators), and blocks do not
    // overlap, so none lies inside another.
    val gen = for {
      s <- Gen.listOfN(15, Gen.oneOf('a', 'b', 'c', ' ')).map(_.mkString)
      t <- Gen.listOfN(10, Gen.oneOf('a', 'b', 'c', 'd', ' ')).map(_.mkString)
    } yield (s, t)
    forAllSampled(gen) { case (s, t) =>
      val m  = maxMatchLengths(s, t)
      val ps = placeholders(s, t)
      for ((j, text) <- ps) {
        assert(s.contains(text))
        assert(t.substring(j + text.length, j + m(j)).forall(Skeletons.isSeparator))
      }
      for (((a, ta), (b, _)) <- ps.zip(ps.drop(1))) assert(a + ta.length <= b)
    }
  }

  test("identical source and target yield one whole-string placeholder") {
    assert(placeholders("abcdef", "abcdef") == Vector((0, "abcdef")))
  }

  test("disjoint alphabets yield no placeholders") {
    assert(placeholders("abc", "xyz").isEmpty)
  }

  test("empty target yields no placeholders") {
    assert(placeholders("abc", "").isEmpty)
  }

  test("every substring of a placeholder is itself a placeholder (footnote 2)") {
    val src        = "hello world"
    val tgt        = "xx world yy"
    val m          = maxMatchLengths(src, tgt)
    val (j, text)  = placeholders(src, tgt).head
    // any substring inside the block also occurs in the source
    for (a <- j until j + text.length)
      assert(m(a) >= j + text.length - a)
  }
}

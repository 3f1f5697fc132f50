package repro.core

import org.scalacheck.Gen
import repro.{PropHelper, SparkSpec}

/** Semantics of the five transformation units (paper §2, Definition 1). */
class UnitsSpec extends SparkSpec with PropHelper {

  // ---- Substr ----
  test("Substr returns the [s, e) slice") {
    assert(Substr(0, 3)("abcdef").contains("abc"))
    assert(Substr(2, 5)("abcdef").contains("cde"))
    assert(Substr(5, 6)("abcdef").contains("f"))
  }
  test("Substr over the full string is identity") {
    assert(Substr(0, 6)("abcdef").contains("abcdef"))
  }
  test("Substr out of range is undefined") {
    assert(Substr(0, 7)("abcdef").isEmpty)
    assert(Substr(-1, 3)("abcdef").isEmpty)
    assert(Substr(3, 3)("abcdef").isEmpty)
    assert(Substr(4, 2)("abcdef").isEmpty)
  }
  test("Substr on empty input is undefined") {
    assert(Substr(0, 1)("").isEmpty)
  }
  test("Substr agrees with String.substring wherever defined (property)") {
    val gen = for {
      s <- Gen.alphaNumStr.suchThat(_.nonEmpty)
      a <- Gen.choose(0, s.length - 1)
      b <- Gen.choose(a + 1, s.length)
    } yield (s, a, b)
    forAllSampled(gen) { case (s, a, b) =>
      assert(Substr(a, b)(s).contains(s.substring(a, b)))
    }
  }

  // ---- Split ----
  test("Split picks the i-th piece, 1-based (paper's Split(',', 1) example)") {
    assert(Split(',', 1)("prus-czarnecki, andrzej").contains("prus-czarnecki"))
  }
  test("Split keeps empty pieces") {
    assert(Split(',', 1)(",a,b").contains(""))
    assert(Split(',', 2)("a,,b").contains(""))
    assert(Split(',', 3)("a,b,").contains(""))
  }
  test("Split with absent delimiter yields the whole string as piece 1") {
    assert(Split('|', 1)("abc").contains("abc"))
    assert(Split('|', 2)("abc").isEmpty)
  }
  test("Split index past the piece count is undefined") {
    assert(Split(',', 4)("a,b,c").isEmpty)
    assert(Split(',', 0)("a,b,c").isEmpty)
  }
  test("Split reassembles the input (property)") {
    val gen = for {
      s <- Gen.listOf(Gen.oneOf(Gen.alphaNumChar, Gen.const(','))).map(_.mkString)
    } yield s
    forAllSampled(gen) { s =>
      val n      = s.count(_ == ',') + 1
      val pieces = (1 to n).map(Split(',', _)(s).get)
      assert(pieces.mkString(",") == s)
    }
  }

  test("pieces agree with String.split on the quoted delimiter, limit -1 (property)") {
    // Delimiter runs, leading and trailing delimiters and the empty string;
    // '.' and '|' are regex metacharacters, so the quoting matters.
    val delim = Gen.oneOf(',', '.', '|')
    val str = Gen.oneOf(
      Gen.listOf(Gen.oneOf(Gen.const('a'), Gen.const('b'), delim)).map(_.mkString),
      Gen.oneOf("", ",", "..", "|a|", ",,a,,b,,"),
    )
    val gen = for { s <- str; c1 <- delim; c2 <- delim } yield (s, c1, c2)
    def quoted(c: Char) = java.util.regex.Pattern.quote(c.toString)
    forAllSampled(gen, samples = 300) { case (s, c1, c2) =>
      val parts  = s.split(quoted(c1), -1)
      val parts2 = s.split(s"${quoted(c1)}|${quoted(c2)}", -1)
      for (i <- -1 to parts2.length + 1) {
        assert(TransformationUnit.piece(s, i, c1) == parts.lift(i - 1), (s, i, c1))
        assert(Split(c1, i)(s) == parts.lift(i - 1), (s, i, c1))
        assert(TransformationUnit.piece(s, i, c1, c2) == parts2.lift(i - 1), (s, i, c1, c2))
      }
    }
  }

  // ---- SplitSubstr ----
  test("SplitSubstr is Split then Substr") {
    // "bowling, michael" -> piece 2 of ' ' split is "michael", first char "m"
    assert(SplitSubstr(' ', 2, 0, 1)("bowling, michael").contains("m"))
    assert(SplitSubstr(',', 1, 0, 4)("bowling, michael").contains("bowl"))
  }
  test("SplitSubstr undefined when the piece is too short") {
    assert(SplitSubstr(',', 1, 0, 9)("abc,def").isEmpty)
  }
  test("SplitSubstr undefined when the piece index is out of range") {
    assert(SplitSubstr(',', 3, 0, 1)("abc,def").isEmpty)
  }
  test("SplitSubstr equals composing Split and Substr (property)") {
    val gen = for {
      s <- Gen.listOf(Gen.oneOf(Gen.alphaNumChar, Gen.const(';'))).map(_.mkString)
      i <- Gen.choose(1, 4)
      a <- Gen.choose(0, 5)
      b <- Gen.choose(1, 8)
    } yield (s, i, a, a + b)
    forAllSampled(gen) { case (s, i, a, b) =>
      val composed = Split(';', i)(s).flatMap(Substr(a, b)(_))
      assert(SplitSubstr(';', i, a, b)(s) == composed)
    }
  }

  // ---- TwoCharSplitSubstr ----
  test("TwoCharSplitSubstr splits on either character") {
    // "a-b_c" split on '-' and '_' -> pieces a, b, c
    assert(TwoCharSplitSubstr('-', '_', 2, 0, 1)("a-b_c").contains("b"))
    assert(TwoCharSplitSubstr('-', '_', 3, 0, 1)("a-b_c").contains("c"))
  }
  test("TwoCharSplitSubstr is symmetric in its delimiters") {
    val s = "x-y_z-w"
    for (i <- 1 to 4)
      assert(TwoCharSplitSubstr('-', '_', i, 0, 1)(s) == TwoCharSplitSubstr('_', '-', i, 0, 1)(s))
  }
  test("TwoCharSplitSubstr with one absent delimiter degrades to SplitSubstr") {
    val s = "ab-cd-ef"
    for (i <- 1 to 3)
      assert(TwoCharSplitSubstr('-', '%', i, 0, 2)(s) == SplitSubstr('-', i, 0, 2)(s))
  }

  // ---- Literal ----
  test("Literal ignores its input") {
    assert(Literal("x")("anything").contains("x"))
    assert(Literal("")("anything").contains(""))
    assert(Literal("@ualberta.ca")("").contains("@ualberta.ca"))
  }
  test("Literal is the only constant unit") {
    assert(Literal("x").isConstant)
    assert(!Substr(0, 1).isConstant)
    assert(!Split(',', 1).isConstant)
    assert(!SplitSubstr(',', 1, 0, 1).isConstant)
    assert(!TwoCharSplitSubstr(',', ';', 1, 0, 1).isConstant)
  }

  // ---- Lemma 1: TwoCharSplitSubstr + SplitSubstr cover SplitSplitSubstr ----
  /** Reference implementation of Auto-Join's SplitSplitSubstr: split by c1,
    * take piece i1, split that by c2, take piece i2, then Substr.
    */
  private def splitSplitSubstr(
      c1: Char, i1: Int, c2: Char, i2: Int, s: Int, e: Int,
  )(input: String): Option[String] =
    Split(c1, i1)(input).flatMap(Split(c2, i2)(_)).flatMap(Substr(s, e)(_))

  test("Lemma 1 case: neither delimiter present — Substr suffices") {
    val in  = "abcdefgh"
    val out = splitSplitSubstr('-', 1, '_', 1, 2, 5)(in)
    assert(out == Substr(2, 5)(in))
  }
  test("Lemma 1 case: only one delimiter present — SplitSubstr suffices") {
    val in  = "abc-def"
    val out = splitSplitSubstr('-', 2, '_', 1, 0, 2)(in)
    assert(out == SplitSubstr('-', 2, 0, 2)(in))
  }
  test("Lemma 1 case: text between c1 and c2 — TwoCharSplitSubstr covers it") {
    val in = "aa-bb_cc" // between '-' and '_' is "bb"
    val viaSSS = splitSplitSubstr('-', 2, '_', 1, 0, 2)(in)
    assert(viaSSS.contains("bb"))
    assert(TwoCharSplitSubstr('-', '_', 2, 0, 2)(in) == viaSSS)
  }
  test("Lemma 1 case: c2 before c1 — TwoCharSplitSubstr with swapped order") {
    val in = "aa_bb-cc" // between '_' and '-' is "bb"
    val viaSSS = splitSplitSubstr('-', 1, '_', 2, 0, 2)(in)
    assert(viaSSS.contains("bb"))
    assert(TwoCharSplitSubstr('_', '-', 2, 0, 2)(in) == viaSSS)
  }

  // ---- rendering ----
  test("render is stable and distinct per unit") {
    val units = Vector(
      Substr(1, 2), Split(',', 1), SplitSubstr(' ', 2, 0, 1),
      TwoCharSplitSubstr('a', 'b', 1, 0, 1), Literal("x"),
    )
    assert(units.map(_.render).distinct.size == units.size)
    assert(Split(',', 1).render == "Split(',',1)")
    assert(Literal("ab").render == "Literal('ab')")
  }

  test("Literal render escapes quotes and backslashes like delimiters") {
    assert(Literal("it's").render == """Literal('it\'s')""")
    assert(Literal("a\\b").render == """Literal('a\\b')""")
    assert(Split('\'', 1).render == """Split('\'',1)""")
    // Unescaped, both of these rendered <Literal('a'), Literal('b')>.
    val spliced = Transformation(Literal("a'), Literal('b"))
    val two     = Transformation(Literal("a"), Literal("b"))
    assert(spliced.render != two.render)
  }

  test("Literal render is self-delimiting and decodes back to its string (property)") {
    // No unescaped quote inside the quotes, so a transformation's rendering
    // splits back into its units: rendering is injective.
    val str = Gen.listOf(Gen.oneOf('a', '\'', '\\', ',', ' ', ')')).map(_.mkString)
    forAllSampled(str, samples = 300) { s =>
      val r = Literal(s).render
      assert(r.startsWith("Literal('") && r.endsWith("')"))
      val inner = r.substring("Literal('".length, r.length - 2)
      val out   = new StringBuilder
      var i     = 0
      while (i < inner.length) {
        inner(i) match {
          case '\\' => out += inner(i + 1); i += 2
          case '\''  => fail(s"unescaped quote in $r")
          case c     => out += c; i += 1
        }
      }
      assert(out.toString == s)
    }
  }
}

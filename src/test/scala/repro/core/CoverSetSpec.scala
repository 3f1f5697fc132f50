package repro.core

import org.scalacheck.Gen
import repro.{PropHelper, SparkSpec}

/** Greedy minimal cover (paper §4.1.6). */
class CoverSetSpec extends SparkSpec with PropHelper {

  private def t(tag: String) = Transformation(Literal(tag))

  /** The lazy greedy over explicit covered-row sets. */
  private def greedy(
      cands: Vector[(Transformation, Array[Int])],
      nRows: Int,
      minSupportRows: Int = 2,
  ): Vector[CoverSet.Chosen] =
    CoverSet.greedy(cands.map { case (t, rows) => (t, rows.length) }, nRows, minSupportRows)(
      cands.toMap
    )

  /** Reference: the naive greedy, recomputing every candidate's marginal
    * gain at every step. Returns (transformation, marginal gain) in
    * selection order.
    */
  private def naiveGreedy(
      cands: Vector[(Transformation, Array[Int])],
      nRows: Int,
      minSupportRows: Int,
  ): Vector[(Transformation, Int)] = {
    val uncovered = scala.collection.mutable.Set.from(0 until nRows)
    var remaining = cands.filter(_._2.length >= math.max(1, minSupportRows))
    val out       = Vector.newBuilder[(Transformation, Int)]
    var gains     = remaining.map { case (t, rows) => (t, rows.count(uncovered)) }.filter(_._2 > 0)
    while (gains.nonEmpty) {
      val best = gains.min(CoverSet.order)
      out += best
      uncovered --= remaining.find(_._1 == best._1).get._2
      remaining = remaining.filterNot(_._1 == best._1)
      gains = remaining.map { case (t, rows) => (t, rows.count(uncovered)) }.filter(_._2 > 0)
    }
    out.result()
  }

  test("greedy picks the largest-gain transformation first") {
    val cands = Vector(
      (t("a"), Array(0, 1, 2, 3, 4)),
      (t("b"), Array(5, 6)),
      (t("c"), Array(0, 1)),
    )
    val cover = greedy(cands, 7)
    assert(cover.map(_.t) == Vector(t("a"), t("b")))
    assert(CoverSet.unionCoverage(cover, 7) == 7)
  }

  test("greedy skips transformations adding no new rows") {
    val cands = Vector(
      (t("a"), Array(0, 1, 2)),
      (t("c"), Array(0, 1)), // subsumed
    )
    val cover = greedy(cands, 3)
    assert(cover.map(_.t) == Vector(t("a")))
  }

  test("classic set-cover instance where greedy is suboptimal but valid") {
    // Optimal = {b, c} (2 sets); greedy takes a (4 rows) then needs b and c.
    val cands = Vector(
      (t("a"), Array(1, 2, 4, 5)),
      (t("b"), Array(0, 1, 2)),
      (t("c"), Array(3, 4, 5)),
    )
    val cover = greedy(cands, 6)
    assert(CoverSet.unionCoverage(cover, 6) == 6)
    assert(cover.size <= 3)
  }

  test("minSupportRows filters low-support transformations") {
    val cands = Vector(
      (t("a"), Array(0, 1, 2)),
      (t("b"), Array(3)), // support 1 < 2
    )
    val cover = greedy(cands, 4, minSupportRows = 2)
    assert(cover.map(_.t) == Vector(t("a")))
    assert(CoverSet.unionCoverage(cover, 4) == 3)
  }

  test("marginal gains are recorded in selection order") {
    val cands = Vector(
      (t("a"), Array(0, 1, 2, 3)),
      (t("b"), Array(2, 3, 4, 5)),
    )
    val cover = greedy(cands, 6)
    assert(cover.map(_.marginalGain) == Vector(4, 2))
  }

  test("empty input yields an empty cover") {
    assert(greedy(Vector.empty, 5).isEmpty)
    assert(greedy(Vector((t("a"), Array[Int]())), 5).isEmpty)
  }

  test("deterministic tie-break prefers fewer placeholders") {
    val long  = Transformation(Substr(0, 1), Substr(1, 2))
    val short = Transformation(Substr(0, 2))
    val cands = Vector((long, Array(0, 1)), (short, Array(0, 1)))
    val cover = greedy(cands, 2)
    assert(cover.head.t == short)
  }

  test("a stale bound is re-queued: the candidate with the larger marginal gain wins") {
    // b's count (3) is the largest, but after a is taken it adds only row 5,
    // while c adds rows 3 and 4.
    val cands = Vector(
      (t("a"), Array(0, 1, 2)),
      (t("b"), Array(0, 1, 5)),
      (t("c"), Array(2, 3, 4)),
    )
    val cover = greedy(cands, 6, minSupportRows = 1)
    assert(cover.map(c => (c.t, c.marginalGain)) == Vector((t("a"), 3), (t("c"), 2), (t("b"), 1)))
  }

  test("covered rows are computed only for candidates that reach the top of the heap") {
    val cands = Vector((t("a"), Array(0, 1, 2, 3, 4, 5)), (t("b"), Array(6, 7))) ++
      Vector.tabulate(50)(i => (t(s"x$i"), Array(i % 6)))
    val asked = scala.collection.mutable.ArrayBuffer.empty[Transformation]
    val rows  = cands.toMap
    val cover =
      CoverSet.greedy(cands.map { case (t, r) => (t, r.length) }, 8, 1) { t => asked += t; rows(t) }
    assert(cover.map(_.t) == Vector(t("a"), t("b")))
    assert(asked == Seq(t("a"), t("b")))
  }

  test("lazy greedy returns exactly the naive greedy's cover, in any input order (property)") {
    // Few rows and small row sets, so equal counts and equal marginal gains
    // are common and the tie-break decides most steps.
    val instance = for {
      nRows   <- Gen.choose(1, 8)
      n       <- Gen.choose(0, 14)
      sets    <- Gen.listOfN(n, Gen.choose(0, 3).flatMap(k => Gen.pick(math.min(k, nRows), 0 until nRows)))
      support <- Gen.choose(1, 2)
      seed    <- Gen.long
    } yield {
      // Up to two placeholders, so the placeholder tie-break is exercised too.
      val cands = sets.zipWithIndex.map { case (rows, i) =>
        val units = Vector.tabulate(i % 3)(j => Substr(j, j + 1)) :+ Literal(s"r$i")
        (Transformation(units), rows.sorted.toArray)
      }.toVector
      (nRows, cands, support, seed)
    }
    forAllSampled(instance, samples = 300) { case (nRows, cands, support, seed) =>
      val expected = naiveGreedy(cands, nRows, support)
      for (order <- Seq(cands, cands.reverse, new scala.util.Random(seed).shuffle(cands)))
        assert(greedy(order, nRows, support).map(c => (c.t, c.marginalGain)) == expected)
    }
  }

  test("unionCoverage counts distinct rows once") {
    val cover = Vector(
      CoverSet.Chosen(t("a"), Array(0, 1), 2),
      CoverSet.Chosen(t("b"), Array(1, 2), 1),
    )
    assert(CoverSet.unionCoverage(cover, 4) == 3)
  }
}

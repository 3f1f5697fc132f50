package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Tables

/** Reproduces paper Table 3: pruning effectiveness — generated vs to-try
  * transformations (duplicate removal) and the non-covering-unit cache hit
  * ratio.
  */
class Table3Bench extends AnyFunSuite {

  test("Table 3: pruning performance") {
    val cells = BenchRuns.cells
    println(Tables.renderTable3(cells))

    for (r <- cells) {
      val s = r.pruning
      // Duplicate removal bites everywhere (paper: 45-74%; our generator
      // caps the redundant candidate tail, so shares run lower).
      assert(s.duplicateRatio >= 0.04, s"${r.matching}/${r.dataset} dup=${s.duplicateRatio}")
      // The unit-level cache absorbs most applications (paper: 74-99%).
      assert(s.cacheHitRatio >= 0.5, s"${r.matching}/${r.dataset} hit=${s.cacheHitRatio}")
      assert(s.generated >= s.toTry)
    }

    // Longer rows generate disproportionately more transformations and a
    // higher duplicate share (paper §6.5: Synth-500L ~8x generated, dup%
    // rising from ~52% to ~74%).
    def cellS(m: String, d: String) = BenchRuns.cell(m, d).pruning
    for (m <- Seq("N-Gram", "Golden")) {
      assert(cellS(m, "Synth-50L").generated > cellS(m, "Synth-50").generated,
        s"$m: longer rows should generate more")
      assert(cellS(m, "Synth-500L").duplicateRatio > cellS(m, "Synth-500").duplicateRatio - 0.05,
        s"$m: longer rows should have a higher duplicate share")
    }
  }
}

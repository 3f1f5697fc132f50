package repro.experiments

import repro.experiments.Experiments.DatasetRun

/** Renders the reproduction tables with the paper's published numbers next
  * to the measured ones.
  */
object Tables {

  // ---- Paper reference numbers (ICDE 2022, Tables 1–3) ---------------------

  /** Table 1: #Rows, Avg Len, #Pairs, P, R, F1. */
  val paperTable1: Map[String, (Double, Double, Double, Double, Double, Double)] = Map(
    "Benchmark"  -> (92.13, 31.08, 112.55, 0.81, 0.93, 0.86),
    "Open data"  -> (3808, 19.33, 360125, 0.01, 0.92, 0.02),
    "Synth-50"   -> (50, 27.59, 44.20, 1.00, 0.88, 0.94),
    "Synth-50L"  -> (50, 55.41, 48.00, 1.00, 0.96, 0.98),
    "Synth-500"  -> (500, 27.64, 416.10, 0.97, 0.81, 0.87),
    "Synth-500L" -> (500, 55.26, 460.40, 0.96, 0.89, 0.92),
  )

  /** Table 2 cells: (topCov, coverage, #trans, timeSec); None = the paper
    * marks Auto-Join as not finishing within its 650 000 s budget.
    */
  final case class PaperT2(
      ours: (Double, Double, Double, Double),
      autojoin: Option[(Double, Double, Double, Double)],
  )
  val paperTable2: Map[(String, String), PaperT2] = Map(
    ("N-Gram", "Benchmark")  -> PaperT2((0.58, 1.00, 25.71, 22), Some((0.39, 0.43, 2.65, 269174))),
    ("N-Gram", "Open data")  -> PaperT2((0.30, 0.56, 3.00, 23386), Some((0.00, 0.00, 0.00, 91177))),
    ("N-Gram", "Synth-50")   -> PaperT2((0.42, 1.00, 3.00, 5), Some((0.42, 0.42, 1.00, 84463))),
    ("N-Gram", "Synth-50L")  -> PaperT2((0.40, 1.00, 3.00, 21), None),
    ("N-Gram", "Synth-500")  -> PaperT2((0.39, 1.00, 18.00, 232), Some((0.39, 0.71, 3.00, 239559))),
    ("N-Gram", "Synth-500L") -> PaperT2((0.35, 0.68, 49.00, 1026), None),
    ("Golden", "Benchmark")  -> PaperT2((0.58, 1.00, 13.94, 7), Some((0.37, 0.44, 3.13, 200281))),
    ("Golden", "Open data")  -> PaperT2((0.30, 0.66, 8.00, 4147), Some((0.15, 0.15, 1.00, 124626))),
    ("Golden", "Synth-50")   -> PaperT2((0.42, 1.00, 3.00, 6), Some((0.42, 0.42, 1.00, 302647))),
    ("Golden", "Synth-50L")  -> PaperT2((0.40, 1.00, 3.00, 27), None),
    ("Golden", "Synth-500")  -> PaperT2((0.39, 1.00, 3.00, 432), None),
    ("Golden", "Synth-500L") -> PaperT2((0.35, 1.00, 3.00, 2119), None),
  )

  /** Table 3: generated trans., trans. to try, duplicate %, cache hit %. */
  val paperTable3: Map[(String, String), (Double, Double, Double, Double)] = Map(
    ("N-Gram", "Benchmark")  -> (190100.8, 49560.7, 52.1, 85.4),
    ("N-Gram", "Open data")  -> (3628823.0, 1848653.0, 49.1, 99.0),
    ("N-Gram", "Synth-50")   -> (76624.0, 35552.8, 52.4, 94.8),
    ("N-Gram", "Synth-50L")  -> (625475.5, 148256.5, 72.5, 96.7),
    ("N-Gram", "Synth-500")  -> (584663.4, 274491.2, 51.8, 95.2),
    ("N-Gram", "Synth-500L") -> (6371427.7, 1479046.5, 74.1, 97.3),
    ("Golden", "Benchmark")  -> (78922.7, 30636.9, 45.8, 74.2),
    ("Golden", "Open data")  -> (794078.0, 435771.0, 45.1, 97.1),
    ("Golden", "Synth-50")   -> (90553.7, 40832.4, 53.1, 94.2),
    ("Golden", "Synth-50L")  -> (656267.0, 156242.1, 72.4, 96.3),
    ("Golden", "Synth-500")  -> (745167.0, 344282.5, 52.2, 95.0),
    ("Golden", "Synth-500L") -> (6874889.8, 1602243.3, 73.7, 96.6),
  )

  // ---- Renderers ------------------------------------------------------------

  private def f2(x: Double) = f"$x%.2f"
  private def f1d(x: Double) = f"$x%.1f"

  def renderTable1(runs: Seq[Experiments.MatchRow]): String = {
    val sb = new StringBuilder
    sb ++= "Table 1: Row matching performance — measured | paper\n"
    sb ++= f"${"Dataset"}%-12s ${"#Rows"}%16s ${"AvgLen"}%16s ${"#Pairs"}%22s ${"P"}%13s ${"R"}%13s ${"F1"}%13s\n"
    for (r <- runs) {
      val p = paperTable1.get(r.dataset)
      def pp(sel: ((Double, Double, Double, Double, Double, Double)) => Double, meas: String, fmt: Double => String) =
        f"$meas%s | ${p.map(x => fmt(sel(x))).getOrElse("-")}%s"
      sb ++= f"${r.dataset}%-12s ${pp(_._1, f1d(r.nRows), f1d)}%16s ${pp(_._2, f1d(r.avgLen), f1d)}%16s " +
        f"${pp(_._3, f1d(r.nPairs), f1d)}%22s ${pp(_._4, f2(r.prf.precision), f2)}%13s " +
        f"${pp(_._5, f2(r.prf.recall), f2)}%13s ${pp(_._6, f2(r.prf.f1), f2)}%13s\n"
    }
    sb.toString
  }

  def renderTable2(runs: Seq[DatasetRun]): String = {
    val sb = new StringBuilder
    sb ++= "Table 2: Coverage and runtime, ours (Auto-Join) — measured | paper\n"
    sb ++= f"${"Match"}%-7s ${"Dataset"}%-12s ${"TopCov"}%26s ${"Coverage"}%26s ${"#Trans"}%26s ${"Time(s)"}%34s\n"
    for (r <- runs) {
      val p = paperTable2.get((r.matching, r.dataset))
      def ajStr(m: Experiments.MethodOut) =
        if (m.budgetExceeded) s">${f1d(m.timeSec)}" else f1d(m.timeSec)
      val topM = r.autojoin.fold(f2(r.ours.topCov))(a => s"${f2(r.ours.topCov)} (${f2(a.topCov)})")
      val covM = r.autojoin.fold(f2(r.ours.setCov))(a => s"${f2(r.ours.setCov)} (${f2(a.setCov)})")
      val ntM  = r.autojoin.fold(f2(r.ours.nTrans))(a => s"${f2(r.ours.nTrans)} (${f2(a.nTrans)})")
      val tmM  = r.autojoin.fold(f1d(r.ours.timeSec))(a => s"${f1d(r.ours.timeSec)} (${ajStr(a)})")
      def pap(sel: PaperT2 => String) = p.map(sel).getOrElse("-")
      val topP = pap(x => s"${f2(x.ours._1)} (${x.autojoin.map(a => f2(a._1)).getOrElse("-")})")
      val covP = pap(x => s"${f2(x.ours._2)} (${x.autojoin.map(a => f2(a._2)).getOrElse("-")})")
      val ntP  = pap(x => s"${f2(x.ours._3)} (${x.autojoin.map(a => f2(a._3)).getOrElse("-")})")
      val tmP  = pap(x => s"${f1d(x.ours._4)} (${x.autojoin.map(a => f1d(a._4)).getOrElse(">650000")})")
      sb ++= f"${r.matching}%-7s ${r.dataset}%-12s ${s"$topM | $topP"}%26s ${s"$covM | $covP"}%26s " +
        f"${s"$ntM | $ntP"}%26s ${s"$tmM | $tmP"}%34s\n"
    }
    sb.toString
  }

  def renderTable3(runs: Seq[DatasetRun]): String = {
    val sb = new StringBuilder
    sb ++= "Table 3: Pruning performance — measured | paper\n"
    sb ++= f"${"Match"}%-7s ${"Dataset"}%-12s ${"Generated"}%26s ${"ToTry"}%26s ${"Dup%"}%18s ${"CacheHit%"}%18s\n"
    for (r <- runs) {
      val p = paperTable3.get((r.matching, r.dataset))
      val gen = s"${f1d(r.pruning.generated.toDouble)} | ${p.map(x => f1d(x._1)).getOrElse("-")}"
      val tot = s"${f1d(r.pruning.toTry.toDouble)} | ${p.map(x => f1d(x._2)).getOrElse("-")}"
      val dup = s"${f1d(r.pruning.duplicateRatio * 100)} | ${p.map(x => f1d(x._3)).getOrElse("-")}"
      val hit = s"${f1d(r.pruning.cacheHitRatio * 100)} | ${p.map(x => f1d(x._4)).getOrElse("-")}"
      sb ++= f"${r.matching}%-7s ${r.dataset}%-12s $gen%26s $tot%26s $dup%18s $hit%18s\n"
    }
    sb.toString
  }
}

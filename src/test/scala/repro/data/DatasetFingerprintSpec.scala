package repro.data

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import repro.SparkSpec

/** Pins the exact content of four generated datasets, one per simulator
  * path, so a change in the order the generators draw from their `Random`
  * (or in anything else they compute) fails here rather than silently moving
  * the Table 1–3 numbers. The hashes were recorded from the generators before
  * their shared tail was factored out.
  */
class DatasetFingerprintSpec extends SparkSpec {

  /** SHA-256 prefix of the strings, each followed by a NUL. */
  private def sha(xs: Seq[String]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    for (x <- xs) { md.update(x.getBytes(StandardCharsets.UTF_8)); md.update(0.toByte) }
    md.digest().take(8).map(b => f"$b%02x").mkString
  }

  private def fingerprint(ds: JoinDataset): (String, String, String) = (
    sha(ds.source),
    sha(ds.target),
    sha(ds.goldPairs.toVector.sorted.map { case (i, j) => s"$i,$j" }),
  )

  private val pinned: Seq[(String, () => JoinDataset, (String, String, String))] = Seq(
    ("web27-coordinates",
      () => WebBenchSim.dataset(WebBenchSim.specs.find(_.name == "web27-coordinates").get),
      ("75e7623fc8d5b42a", "6d10f71ba92969e3", "33ea533702d23832")),
    ("SynthJoin.synth(250, seed = 1)",
      () => SynthJoin.synth(250, seed = 1L),
      ("0a49fc592e2aa87f", "7a4e15ba7f0ea3ee", "f806b1ec54492ab3")),
    ("SynthJoin.synthL(250, seed = 1001)",
      () => SynthJoin.synthL(250, seed = 1001L),
      ("c291d4b7bcdacacb", "191047e04858c7b5", "6adc48d705e0b845")),
    ("OpenDataSim.generate(3808, 99)",
      () => OpenDataSim.generate(3808, 99L),
      ("596cd6cacb9c6a1b", "3f39f7a95bafa2da", "5a1b1e3c3e164aff")),
  )

  for ((name, make, expected) <- pinned)
    test(s"$name: source, target and gold pairs are unchanged") {
      assert(fingerprint(make()) == expected)
    }
}

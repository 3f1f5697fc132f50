package repro.data

import repro.core._
import scala.util.Random

/** Simulated stand-in for the Auto-Join web-table benchmark (paper §6.1).
  *
  * The original 31 Google-Fusion table pairs (17 topics, avg 92.13 rows, avg
  * join entry 31 chars) are not redistributable, so we generate 31
  * deterministic pairs with the same operative statistics: realistic textual
  * entities, each table mixing 2–4 coexisting format rules with a dominant
  * rule covering ≈55–60% of rows (the paper's Top Cov. on this benchmark is
  * 0.58 while a small set covers everything). Gold transformations are
  * expressed in the paper's own unit language, so full coverage is achievable
  * exactly as on the real benchmark. See DESIGN.md §3.
  */
object WebBenchSim {

  // Pools are enlarged combinatorially so that most entity names are unique
  // within a ~92-row table — the real benchmark's row matching precision is
  // 0.81, which requires names to rarely collide across rows.
  private val firstNames = Vector(
    "davood", "arash", "mario", "douglas", "andrzej", "michael", "simon", "maria",
    "james", "olivia", "liam", "emma", "noah", "amelia", "sophia", "lucas",
    "henry", "evelyn", "jack", "luna", "grace", "victor", "nora", "owen",
    "chen", "wei", "yuki", "ahmed", "fatima", "carlos", "elena", "pierre",
    "anita", "raj", "priya", "kofi", "zara", "ivan", "olga", "sven",
  ) ++ (for {
    a <- Vector("mar", "jul", "dan", "ros", "vik", "hel", "san", "tar", "len", "mir",
                "kat", "bor", "fel", "gus", "han", "ing", "jor", "kal", "lor", "nad")
    b <- Vector("io", "ia", "an", "en", "ik", "ko", "us", "ita", "elle", "ard",
                "ona", "or", "una", "ela")
  } yield a + b)
  private val lastNames = Vector(
    "rafiei", "nobari", "nascimento", "gingrich", "czarnecki", "bowling", "gosgnach",
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller", "davis",
    "wilson", "anderson", "taylor", "thomas", "moore", "martin", "lee", "walker",
    "hall", "allen", "young", "king", "wright", "scott", "green", "baker",
    "adams", "nelson", "carter", "mitchell", "turner", "phillips", "campbell",
    "parker", "evans", "edwards", "collins", "stewart", "morris", "murphy",
  ) ++ (for {
    a <- Vector("ander", "bergs", "carls", "davids", "eriks", "fredrik", "gustav",
                "hendrik", "ivars", "johans", "karls", "larss", "matts", "nils",
                "olofs", "peters", "roberts", "svens", "thomass", "ulfs")
    b <- Vector("son", "sen", "sson", "dottir", "berg", "strom", "vall", "gren", "lund", "qvist")
  } yield a + b)
  private val cities = Vector(
    "edmonton", "calgary", "toronto", "vancouver", "montreal", "ottawa", "winnipeg",
    "halifax", "regina", "saskatoon", "victoria", "hamilton", "kingston", "windsor",
    "sacramento", "austin", "denver", "phoenix", "portland", "seattle", "boston",
    "chicago", "atlanta", "nashville", "columbus", "madison", "lincoln", "topeka",
  ) ++ (for {
    a <- Vector("brook", "clear", "east", "west", "north", "south", "glen", "maple",
                "oak", "river", "lake", "stone", "green", "fair", "spring", "mill",
                "bridge", "ash", "cedar", "pine", "elm", "rock", "sand", "wolf", "bear")
    b <- Vector("ville", "ton", "burg", "ford", "field", "port", "dale", "view")
  } yield a + b)
  private val regions = Vector(
    ("ab", "alberta"), ("bc", "columbia"), ("on", "ontario"), ("qc", "quebec"),
    ("mb", "manitoba"), ("sk", "saskatchewan"), ("ns", "scotia"), ("ca", "california"),
    ("tx", "texas"), ("co", "colorado"), ("az", "arizona"), ("or", "oregon"),
    ("wa", "washington"), ("ma", "massachusetts"), ("il", "illinois"), ("ga", "georgia"),
  )
  private val companies = Vector(
    "acme", "globex", "initech", "umbrella", "stark", "wayne", "wonka", "tyrell",
    "cyberdyne", "aperture", "hooli", "vandelay", "dunder", "prestige", "oscorp",
    "nakatomi", "zorg", "weyland", "soylent", "massive", "pied", "raviga",
  ) ++ (for {
    a <- Vector("nova", "apex", "luna", "terra", "vertex", "zenith", "delta", "omega",
                "quant", "hyper", "meta", "proto", "astro", "micro", "macro")
    b <- Vector("tech", "soft", "corp", "works", "labs", "dyne", "tron", "sys")
  } yield a + b)
  private val depts = Vector(
    "cmput", "phys", "math", "stat", "chem", "biol", "engl", "hist", "econ", "psyc",
  ) ++ (for {
    a <- Vector("bio", "geo", "ast", "chm", "mth", "lng", "phl", "hst", "ecn", "psy",
                "soc", "ant", "eng", "mus", "art", "kin", "nur", "law", "med", "zoo")
    b <- Vector("sci", "eng", "ed", "st")
  } yield a + b)
  private val streets = Vector(
    "jasper", "whyte", "main", "oak", "elm", "maple", "birch", "cedar", "pine",
    "college", "university", "granville", "yonge", "portage", "broadway", "hastings",
  ) ++ (for {
    a <- Vector("brook", "clear", "east", "west", "glen", "river", "lake", "stone",
                "green", "fair", "spring", "mill", "bridge", "ash", "rock", "sand",
                "wolf", "bear", "fox", "deer")
    b <- Vector("wood", "side", "crest", "way", "hill", "gate", "park", "view")
  } yield a + b)
  private val teams = Vector(
    "oilers", "flames", "canucks", "jets", "senators", "raptors", "bluejays",
    "whitecaps", "elks", "stampeders", "roughriders", "argonauts", "alouettes",
  ) ++ (for {
    a <- Vector("wolv", "eagl", "bronc", "stall", "falc", "panth", "rapt", "grizz",
                "coug", "lynx", "otter", "bison", "moose", "elkh", "hawk")
    b <- Vector("ers", "ines", "cats", "hawks", "dogs", "birds", "men", "stars")
  } yield a + b)
  private val genera = Vector(
    "panthera", "canis", "felis", "ursus", "vulpes", "lynx", "equus", "cervus",
    "castor", "lepus", "martes", "gulo", "rangifer", "bison", "ovis", "alces",
  ) ++ (for {
    a <- Vector("pano", "cani", "feli", "ursa", "vulpo", "lynco", "equo", "cervo",
                "casto", "lepo", "marto", "gulo", "rango", "biso", "ovi", "alceo",
                "myo", "soro", "talo", "eremo")
    b <- Vector("thera", "don", "pus", "tis", "rix", "mys", "cera", "gale")
  } yield a + b)
  private val species = Vector(
    "leo", "lupus", "catus", "arctos", "vulpes", "canadensis", "ferus", "elaphus",
    "fiber", "americanus", "martes", "gulo", "tarandus", "bison", "aries", "alces",
  ) ++ (for {
    a <- Vector("bore", "sylv", "rufi", "nigr", "alba", "mont", "camp", "flav",
                "long", "brev", "magn", "parv", "occi", "orie", "sept", "meri",
                "aqua", "terr", "volu", "gris")
    b <- Vector("alis", "anus", "ensis", "icus", "atus", "osus")
  } yield a + b)

  private def pick[A](rnd: Random, xs: Vector[A]): A = xs(rnd.nextInt(xs.size))
  private def digits(rnd: Random, n: Int): String = Vector.fill(n)(rnd.nextInt(10)).mkString

  /** One simulated benchmark table pair: a source-row generator and the
    * weighted gold transformations that produce target rows.
    */
  final case class TableSpec(
      name: String,
      topic: String,
      rows: Int,
      gen: Random => String,
      variants: Vector[(Transformation, Double)],
  )

  private def T(units: TransformationUnit*): Transformation = Transformation(units.toVector)

  // -- Source-row generators ------------------------------------------------

  private def personLastFirst(rnd: Random) = s"${pick(rnd, lastNames)}, ${pick(rnd, firstNames)}"
  private def personFirstLast(rnd: Random) = s"${pick(rnd, firstNames)} ${pick(rnd, lastNames)}"
  private def phone(rnd: Random)           = s"(${digits(rnd, 3)}) ${digits(rnd, 3)}-${digits(rnd, 4)}"
  private def isoDate(rnd: Random) =
    f"${1900 + rnd.nextInt(121)}%04d-${1 + rnd.nextInt(12)}%02d-${1 + rnd.nextInt(28)}%02d"
  private def cityRegion(rnd: Random) = { val r = pick(rnd, regions); s"${pick(rnd, cities)}, ${r._1}" }
  private def address(rnd: Random) =
    s"${1 + rnd.nextInt(99899)} ${pick(rnd, streets)} street nw"
  private def course(rnd: Random) = s"${pick(rnd, depts)} ${100 + rnd.nextInt(500)}"
  private def companyDomain(rnd: Random) = s"www.${pick(rnd, companies)}${digits(rnd, 2)}.com"
  private def isbn(rnd: Random)    = s"978-${digits(rnd, 10)}"
  private def teamCity(rnd: Random) = s"${pick(rnd, cities)} ${pick(rnd, teams)}"
  private def binomial(rnd: Random) = s"${pick(rnd, genera)} ${pick(rnd, species)}"
  private def currency(rnd: Random) = s"${10000 + rnd.nextInt(89999)}.${digits(rnd, 2)} cad"
  private def coordinate(rnd: Random) =
    s"${10 + rnd.nextInt(79)}.${digits(rnd, 4)} n, ${100 + rnd.nextInt(79)}.${digits(rnd, 4)} w"
  private def filePath(rnd: Random) =
    s"/home/${pick(rnd, firstNames)}/docs/${pick(rnd, companies)}${digits(rnd, 2)}.txt"
  private def version(rnd: Random) = s"v${1 + rnd.nextInt(8)}.${rnd.nextInt(20)}.${rnd.nextInt(40)}"
  private def flight(rnd: Random)  = s"ac${digits(rnd, 3)} ${pick(rnd, cities)}"

  // -- Variant sets (gold transformations per archetype) --------------------

  private val nameLF: Vector[(Transformation, Double)] = Vector(
    // "last, first" -> "f last" (the paper's Figure-1 example output format)
    T(SplitSubstr(' ', 2, 0, 1), Literal(" "), Split(',', 1))            -> 0.58,
    // -> "first last"
    T(Split(' ', 2), Literal(" "), Split(',', 1))                        -> 0.30,
    // -> "first.last@ualberta.ca"
    T(Split(' ', 2), Literal("."), Split(',', 1), Literal("@ualberta.ca")) -> 0.12,
  )
  private val nameFL: Vector[(Transformation, Double)] = Vector(
    // "first last" -> "last, first"
    T(Split(' ', 2), Literal(", "), Split(' ', 1))                       -> 0.56,
    // -> "last f"
    T(Split(' ', 2), Literal(" "), SplitSubstr(' ', 1, 0, 1))            -> 0.28,
    // -> "first"
    T(Split(' ', 1))                                                     -> 0.16,
  )
  private def emailOf(domain: String): Vector[(Transformation, Double)] = Vector(
    // "last, first" -> "first.last@<domain>"
    T(Split(' ', 2), Literal("."), Split(',', 1), Literal(s"@$domain"))  -> 0.60,
    // -> "f.last@<domain>"
    T(SplitSubstr(' ', 2, 0, 1), Literal("."), Split(',', 1), Literal(s"@$domain")) -> 0.40,
  )
  private val phoneV: Vector[(Transformation, Double)] = Vector(
    // "(780) 432-3636" -> "780-432-3636"
    T(SplitSubstr(')', 1, 1, 4), Literal("-"), Split(' ', 2))            -> 0.58,
    // -> "+1 780 432 3636"
    T(Literal("+1 "), SplitSubstr(')', 1, 1, 4), Literal(" "),
      SplitSubstr('-', 1, 6, 9), Literal(" "), Split('-', 2))            -> 0.27,
    // -> "432-3636"
    T(Split(' ', 2))                                                     -> 0.15,
  )
  private val dateV: Vector[(Transformation, Double)] = Vector(
    // "2020-01-02" -> "02/01/2020"
    T(Split('-', 3), Literal("/"), Split('-', 2), Literal("/"), Split('-', 1)) -> 0.55,
    // -> "2020" (year only)
    T(Split('-', 1))                                                     -> 0.25,
    // -> "01-02"
    T(Substr(5, 10))                                                     -> 0.20,
  )
  private val cityV: Vector[(Transformation, Double)] = Vector(
    // "edmonton, ab" -> "ab - edmonton"
    T(Split(' ', 2), Literal(" - "), Split(',', 1))                      -> 0.58,
    // -> "edmonton (ab)"
    T(Split(',', 1), Literal(" ("), Split(' ', 2), Literal(")"))         -> 0.26,
    // -> "edmonton"
    T(Split(',', 1))                                                     -> 0.16,
  )
  private val addressV: Vector[(Transformation, Double)] = Vector(
    // "10223 jasper street nw" -> "10223 jasper st"
    T(Split(' ', 1), Literal(" "), Split(' ', 2), Literal(" st"))        -> 0.57,
    // -> "jasper street"
    T(Split(' ', 2), Literal(" street"))                                 -> 0.27,
    // -> "10223-jasper"
    T(Split(' ', 1), Literal("-"), Split(' ', 2))                        -> 0.16,
  )
  private val courseV: Vector[(Transformation, Double)] = Vector(
    // "cmput 291" -> "cmput291"
    T(Split(' ', 1), Split(' ', 2))                                      -> 0.58,
    // -> "cmput-291"
    T(Split(' ', 1), Literal("-"), Split(' ', 2))                        -> 0.30,
    // -> "291"
    T(Split(' ', 2))                                                     -> 0.12,
  )
  private val urlV: Vector[(Transformation, Double)] = Vector(
    // "www.acme42.com" -> "acme42.com"
    T(Split('.', 2), Literal(".com"))                                    -> 0.55,
    // -> "http://www.acme42.com"
    T(Literal("http://www."), Split('.', 2), Literal(".com"))            -> 0.30,
    // -> "acme42"
    T(Split('.', 2))                                                     -> 0.15,
  )
  private val isbnV: Vector[(Transformation, Double)] = Vector(
    // "978-0262033848" -> "0262033848"
    T(Split('-', 2))                                                     -> 0.60,
    // -> "978 0262033848"
    T(Split('-', 1), Literal(" "), Split('-', 2))                        -> 0.40,
  )
  private val teamV: Vector[(Transformation, Double)] = Vector(
    // "edmonton oilers" -> "oilers (edmonton)"
    T(Split(' ', 2), Literal(" ("), Split(' ', 1), Literal(")"))         -> 0.58,
    // -> "oilers"
    T(Split(' ', 2))                                                     -> 0.42,
  )
  private val binomialV: Vector[(Transformation, Double)] = Vector(
    // "panthera leo" -> "p. leo"
    T(SplitSubstr(' ', 1, 0, 1), Literal(". "), Split(' ', 2))           -> 0.56,
    // -> "leo, panthera"
    T(Split(' ', 2), Literal(", "), Split(' ', 1))                       -> 0.44,
  )
  private val currencyV: Vector[(Transformation, Double)] = Vector(
    // "1234.56 cad" -> "$1234.56"
    T(Literal("$"), Split(' ', 1))                                       -> 0.60,
    // -> "1234 cad"
    T(Split('.', 1), Literal(" cad"))                                    -> 0.40,
  )
  private val coordV: Vector[(Transformation, Double)] = Vector(
    // "53.1234 n, 113.5678 w" -> "53.1234n 113.5678w"
    T(Split(' ', 1), Literal("n "), Split(' ', 3), Literal("w"))         -> 0.58,
    // -> "53.1234"
    T(Split(' ', 1))                                                     -> 0.42,
  )
  private val pathV: Vector[(Transformation, Double)] = Vector(
    // "/home/liam/docs/acme42.txt" -> "acme42.txt" (piece 1 is the empty
    // prefix before the leading slash, so the filename is piece 5)
    T(Split('/', 5))                                                     -> 0.55,
    // -> "liam: acme42.txt"
    T(Split('/', 3), Literal(": "), Split('/', 5))                       -> 0.45,
  )
  private val versionV: Vector[(Transformation, Double)] = Vector(
    // "v2.11.3" -> "2.11.3"
    T(SplitSubstr('.', 1, 1, 2), Literal("."), Split('.', 2), Literal("."), Split('.', 3)) -> 0.58,
    // -> "2.11"
    T(SplitSubstr('.', 1, 1, 2), Literal("."), Split('.', 2))            -> 0.42,
  )
  private val flightV: Vector[(Transformation, Double)] = Vector(
    // "ac123 edmonton" -> "flight 123 to edmonton" (digits are positions 2..5)
    T(Literal("flight "), SplitSubstr(' ', 1, 2, 5), Literal(" to "), Split(' ', 2)) -> 0.56,
    // -> "ac123"
    T(Split(' ', 1))                                                     -> 0.44,
  )

  /** The 31 table pairs over 17 topics. Row counts hover around the paper's
    * average of 92.13.
    */
  val specs: Vector[TableSpec] = Vector(
    TableSpec("web01-staff-names", "person", 95, personLastFirst, nameLF),
    TableSpec("web02-gov-names", "person", 88, personLastFirst, nameLF),
    TableSpec("web03-authors", "person", 102, personFirstLast, nameFL),
    TableSpec("web04-actors", "person", 76, personFirstLast, nameFL),
    TableSpec("web05-staff-emails", "email", 90, personLastFirst, emailOf("ualberta.ca")),
    TableSpec("web06-corp-emails", "email", 84, personLastFirst, emailOf("globex.com")),
    TableSpec("web07-phones", "phone", 98, phone, phoneV),
    TableSpec("web08-support-phones", "phone", 93, phone, phoneV),
    TableSpec("web09-founding-dates", "date", 91, isoDate, dateV),
    TableSpec("web10-release-dates", "date", 105, isoDate, dateV),
    TableSpec("web11-city-region", "geo", 87, cityRegion, cityV),
    TableSpec("web12-capitals", "capitals", 71, cityRegion, cityV),
    TableSpec("web13-addresses", "address", 96, address, addressV),
    TableSpec("web14-property", "address", 89, address, addressV),
    TableSpec("web15-courses", "course", 92, course, courseV),
    TableSpec("web16-catalog", "course", 85, course, courseV),
    TableSpec("web17-domains", "url", 94, companyDomain, urlV),
    TableSpec("web18-websites", "url", 99, companyDomain, urlV),
    TableSpec("web19-isbn", "book", 83, isbn, isbnV),
    TableSpec("web20-library", "book", 97, isbn, isbnV),
    TableSpec("web21-teams", "sports", 86, teamCity, teamV),
    TableSpec("web22-rosters", "sports", 92, teamCity, teamV),
    TableSpec("web23-species", "taxonomy", 88, binomial, binomialV),
    TableSpec("web24-zoology", "taxonomy", 95, binomial, binomialV),
    TableSpec("web25-prices", "currency", 90, currency, currencyV),
    TableSpec("web26-budget", "currency", 93, currency, currencyV),
    TableSpec("web27-coordinates", "geo-coord", 89, coordinate, coordV),
    TableSpec("web28-file-paths", "filesystem", 91, filePath, pathV),
    TableSpec("web29-versions", "software", 94, version, versionV),
    TableSpec("web30-flights", "travel", 92, flight, flightV),
    TableSpec("web31-governors", "person", 100, personLastFirst, nameLF),
  )

  /** Materializes one spec into a [[JoinDataset]] (deterministic in seed). */
  def dataset(spec: TableSpec, seed: Long = 11L): JoinDataset = {
    val rnd    = new Random(seed ^ spec.name.hashCode.toLong)
    val source = JoinDataset.distinctRows(spec.rows, spec.rows * 100)(spec.gen(rnd))
    JoinDataset.fromGoldRules(
      spec.name, source, spec.variants.map(_._1), rnd, JoinDataset.weighted(spec.variants.map(_._2)),
    )
  }

  /** All 31 simulated benchmark tables. */
  def all(seed: Long = 11L): Vector[JoinDataset] = specs.map(dataset(_, seed))
}

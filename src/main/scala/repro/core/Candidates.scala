package repro.core

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** Candidate transformations over interned units (hash-consing).
  *
  * Each distinct unit of one input gets a dense int id; candidate `i` is the
  * id sequence `ids(offsets(i)) until ids(offsets(i + 1))` of one flat arena,
  * and stands for the transformation of those units in that order.
  * Generation deduplicates these sequences, coverage counts them and Spark
  * ships them; a [[Transformation]] is built only for a candidate a caller
  * asks for.
  */
final class Candidates private[core] (
    private[core] val units: Array[TransformationUnit],
    private[core] val ids: Array[Int],
    private[core] val offsets: Array[Int],
) extends Serializable {

  def size: Int = offsets.length - 1

  /** True when candidate `i` has only constant units ([[Transformation.isConstant]]). */
  def isConstant(i: Int): Boolean = {
    var k = offsets(i)
    while (k < offsets(i + 1)) {
      if (!units(ids(k)).isConstant) return false
      k += 1
    }
    true
  }

  /** Candidate `i` as a transformation. */
  def transformation(i: Int): Transformation = {
    val from = offsets(i)
    Transformation(Vector.tabulate(offsets(i + 1) - from)(k => units(ids(from + k))))
  }
}

object Candidates {

  /** The transformations `ts`, in order and with any repeats, over their
    * interned units.
    */
  private[core] def of(ts: IndexedSeq[Transformation]): Candidates = {
    val b = new Builder(distinct = false)
    var s = new Array[Int](8)
    for (t <- ts) {
      val us = t.units
      if (us.length > s.length) s = new Array[Int](us.length)
      var k = 0
      while (k < us.length) { s(k) = b.intern(us(k)); k += 1 }
      b.add(s, us.length)
    }
    b.result()
  }

  /** Interns units and collects candidates into an arena. With `distinct`,
    * an id sequence already in the arena is dropped (an open-addressing set
    * over the arena), so candidates stay in first-occurrence order. Not
    * thread-safe.
    */
  private[core] final class Builder(distinct: Boolean) {
    private val unitIds  = new java.util.HashMap[TransformationUnit, Integer]()
    private val units    = mutable.ArrayBuffer.empty[TransformationUnit]
    private var literals = new Array[String](64) // a literal's text, by id; null for other units
    private val joined   = mutable.LongMap.empty[Int]

    /** The id of `u`, a new one on first sight. */
    def intern(u: TransformationUnit): Int = {
      val known = unitIds.get(u)
      if (known != null) known.intValue
      else {
        val id = units.length
        units += u
        unitIds.put(u, id)
        if (id == literals.length) literals = java.util.Arrays.copyOf(literals, 2 * id)
        u match {
          case Literal(s) => literals(id) = s
          case _          =>
        }
        id
      }
    }

    def isLiteral(id: Int): Boolean = literals(id) != null

    /** The id of the literal spelling literal `a` then literal `b`. */
    def concat(a: Int, b: Int): Int = {
      val key  = (a.toLong << 32) | (b & 0xffffffffL)
      val seen = joined.getOrElse(key, -1)
      if (seen >= 0) seen
      else {
        val id = intern(Literal(literals(a) + literals(b)))
        joined(key) = id
        id
      }
    }

    private var arena   = new Array[Int](1 << 10)
    private var offsets = new Array[Int](1 << 8) // offsets(n) is the end of the arena
    private var n       = 0
    // With `distinct`: per slot, a candidate's hash (high half) and index + 1
    // (low half); 0 is a free slot.
    private var slots = new Array[Long](if (distinct) 1 << 9 else 0)

    private def hash(s: Array[Int], len: Int): Int = {
      var h = MurmurHash3.seqSeed
      var k = 0
      while (k < len) { h = MurmurHash3.mix(h, s(k)); k += 1 }
      MurmurHash3.finalizeHash(h, len)
    }

    private def sameAs(c: Int, s: Array[Int], len: Int): Boolean = {
      val from = offsets(c)
      if (offsets(c + 1) - from != len) return false
      var k = 0
      while (k < len) {
        if (arena(from + k) != s(k)) return false
        k += 1
      }
      true
    }

    /** Adds the candidate `s(0 until len)`. */
    def add(s: Array[Int], len: Int): Unit = {
      var slot = 0
      var h    = 0
      if (distinct) {
        h = hash(s, len)
        val mask = slots.length - 1
        slot = h & mask
        while (slots(slot) != 0L) {
          val e = slots(slot)
          if ((e >>> 32).toInt == h && sameAs(e.toInt - 1, s, len)) return
          slot = (slot + 1) & mask
        }
      }
      val end = offsets(n)
      if (end + len > arena.length) arena = java.util.Arrays.copyOf(arena, math.max(2 * arena.length, end + len))
      System.arraycopy(s, 0, arena, end, len)
      if (n + 2 > offsets.length) offsets = java.util.Arrays.copyOf(offsets, 2 * offsets.length)
      offsets(n + 1) = end + len
      n += 1
      if (distinct) {
        slots(slot) = (h.toLong << 32) | n
        if (2 * n > slots.length) rehash()
      }
    }

    private def rehash(): Unit = {
      val old = slots
      slots = new Array[Long](2 * old.length)
      val mask = slots.length - 1
      var j    = 0
      while (j < old.length) {
        val e = old(j)
        if (e != 0L) {
          var slot = (e >>> 32).toInt & mask
          while (slots(slot) != 0L) slot = (slot + 1) & mask
          slots(slot) = e
        }
        j += 1
      }
    }

    def result(): Candidates =
      new Candidates(units.toArray, java.util.Arrays.copyOf(arena, offsets(n)), java.util.Arrays.copyOf(offsets, n + 1))
  }
}

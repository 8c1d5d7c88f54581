package repro.baselines

import java.nio.file.Files
import repro.SparkSpec
import repro.core.LocalEnum
import repro.graph.{GraphGen, PartitionedGraph}
import repro.query.{Automorphism, Queries}

/** PSgL / TwinTwig / SEED / Crystal vs the local ground truth. */
class BaselineEnginesSuite extends SparkSpec {

  private val g  = GraphGen.gnm(45, 120, seed = 41)
  private val pg = PartitionedGraph.metis(g, 2, seed = 1)

  private def canonDf(df: org.apache.spark.sql.DataFrame): Set[Seq[Int]] =
    df.collect().map(r => (0 until r.length).map(i => r.getInt(i)): Seq[Int]).toSet

  private def refSet(q: repro.query.Pattern): Set[Seq[Int]] =
    LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q)).embeddings.map(_.toSeq).toSet

  private lazy val index = Crystal.buildIndex(g, Files.createTempDirectory("crystal-test"))

  Seq(Queries.q1, Queries.q2, Queries.q3, Queries.q4, Queries.q5).foreach { q =>
    test(s"PSgL matches the reference on ${q.name}") {
      val run = PSgL.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      assert(canonDf(run.df) == refSet(q))
      assert(run.count == refSet(q).size)
      run.df.unpersist()
    }
  }

  Seq(Queries.q1, Queries.q2, Queries.q4, Queries.q6, Queries.tq1).foreach { q =>
    test(s"TwinTwig matches the reference on ${q.name}") {
      val run = TwinTwig.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      assert(canonDf(run.df) == refSet(q))
      run.df.unpersist()
    }
  }

  Seq(Queries.q2, Queries.q4, Queries.q7, Queries.tq1, Queries.tq2, Queries.tq4).foreach { q =>
    test(s"SEED matches the reference on ${q.name}") {
      val run = Seed.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      assert(canonDf(run.df) == refSet(q))
      run.df.unpersist()
    }
  }

  Seq(Queries.q1, Queries.q2, Queries.q4, Queries.tq1, Queries.tq2, Queries.tq3).foreach { q =>
    test(s"Crystal matches the reference on ${q.name}") {
      val run = Crystal.run(spark, pg, q, Automorphism.symmetryBreaking(q), index)
      assert(canonDf(run.df) == refSet(q))
      run.df.unpersist()
    }
  }

  test("a run leaves only its result cached, and an overflowing run leaves nothing") {
    def persisted = spark.sparkContext.getPersistentRDDs.keySet
    val q  = Queries.q4
    val sb = Automorphism.symmetryBreaking(q)
    def engines(max: Long) = Seq[(String, () => BaselineRun)](
      "PSgL"     -> (() => PSgL.run(spark, pg, q, sb, max)),
      "TwinTwig" -> (() => TwinTwig.run(spark, pg, q, sb, max)),
      "SEED"     -> (() => Seed.run(spark, pg, q, sb, max)),
      "Crystal"  -> (() => Crystal.run(spark, pg, q, sb, index, max)))
    engines(Long.MaxValue).foreach { case (name, run) =>
      val before = persisted
      val r = run()
      assert(r.df.storageLevel != org.apache.spark.storage.StorageLevel.NONE, name)
      r.df.unpersist()
      assert(persisted == before, name)
    }
    engines(10L).foreach { case (name, run) =>
      val before = persisted
      assertThrows[repro.core.IntermediateOverflowException](run())
      assert(persisted == before, s"$name overflowing")
    }
  }

  test("TwinTwig decomposition: units have at most 2 edges and cover all edges") {
    Queries.main.foreach { q =>
      val units = TwinTwig.decompose(q)
      units.foreach { case (_, lf) => assert(lf.nonEmpty && lf.size <= 2) }
      val covered = units.flatMap { case (p, lf) => lf.map(l => (math.min(p, l), math.max(p, l))) }
      assert(covered.toSet == q.edges.toSet, q.name)
      assert(covered.size == covered.distinct.size, s"${q.name}: an edge covered twice")
    }
  }

  test("SEED decomposition uses a clique unit on clique-rich queries") {
    val units = Seed.decompose(Queries.tq2)
    assert(units.exists { case Seed.CliqueUnit(vs) => vs.size == 4; case _ => false })
    val units2 = Seed.decompose(Queries.q4)
    assert(units2.exists { case Seed.CliqueUnit(vs) => vs.size == 3; case _ => false })
  }

  test("SEED uses fewer units than TwinTwig on clique queries") {
    Seq(Queries.tq2, Queries.tq3).foreach { q =>
      assert(Seed.decompose(q).size < TwinTwig.decompose(q).size, q.name)
    }
  }

  test("PSgL shuffles every partial result (nonzero comm on nontrivial queries)") {
    val run = PSgL.run(spark, pg, Queries.q3, Automorphism.symmetryBreaking(Queries.q3))
    assert(run.metrics.shuffledTuples > 0)
    assert(run.metrics.rounds == Queries.q3.n - 1)
    run.df.unpersist()
  }

  test("PSgL's count and shuffled tuples and bytes are pinned on q1-q8") {
    // (count, shuffledTuples, shuffledBytes) per query on this graph and partition
    val want = Map(
      "q1" -> (96L, 625L, 14808L), "q2" -> (291L, 594L, 14664L),
      "q3" -> (340L, 2425L, 75128L), "q4" -> (172L, 649L, 19720L),
      "q5" -> (1462L, 2754L, 109424L), "q6" -> (1258L, 9451L, 366232L),
      "q7" -> (39L, 739L, 19680L), "q8" -> (442L, 3469L, 113944L))
    val got = Queries.main.map { q =>
      val run = PSgL.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      run.df.unpersist()
      q.name -> (run.count, run.metrics.shuffledTuples, run.metrics.shuffledBytes)
    }.toMap
    assert(got == want)
  }

  test("TwinTwig's and SEED's counts and shuffled tuples and bytes are pinned on q1-q8") {
    // (count, shuffledTuples, shuffledBytes) per query on this graph and partition
    val twinTwig = Map(
      "q1" -> (96L, 2508L, 62816L), "q2" -> (291L, 4862L, 138144L),
      "q3" -> (340L, 5644L, 183264L), "q4" -> (172L, 18315L, 682040L),
      "q5" -> (1462L, 47780L, 1978784L), "q6" -> (1258L, 17324L, 738944L),
      "q7" -> (39L, 9686L, 334672L), "q8" -> (442L, 46979L, 2097376L))
    val seed = Map(
      "q1" -> (96L, 2508L, 62816L), "q2" -> (291L, 657L, 16176L),
      "q3" -> (340L, 5644L, 183264L), "q4" -> (172L, 2607L, 82680L),
      "q5" -> (1462L, 6472L, 232864L), "q6" -> (1258L, 17324L, 738944L),
      "q7" -> (39L, 22672L, 930144L), "q8" -> (442L, 41759L, 1867920L))
    val gotTwinTwig = Queries.main.map { q =>
      val run = TwinTwig.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      run.df.unpersist()
      q.name -> (run.count, run.metrics.shuffledTuples, run.metrics.shuffledBytes)
    }.toMap
    val gotSeed = Queries.main.map { q =>
      val run = Seed.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      run.df.unpersist()
      q.name -> (run.count, run.metrics.shuffledTuples, run.metrics.shuffledBytes)
    }.toMap
    assert(gotTwinTwig == twinTwig)
    assert(gotSeed == seed)
  }

  test("Crystal's count and shuffled tuples and bytes are pinned on q1-q8, each intermediate at its width") {
    // (count, shuffledTuples, shuffledBytes); the last join step is the result
    // and is charged once, as PSgL charges it (q2: one step of 291 tuples)
    val want = Map(
      "q1" -> (96L, 505L, 12888L), "q2" -> (291L, 291L, 9312L),
      "q3" -> (340L, 2305L, 73208L), "q4" -> (172L, 466L, 16288L),
      "q5" -> (1462L, 2388L, 102560L), "q6" -> (1258L, 9331L, 364312L),
      "q7" -> (39L, 619L, 17760L), "q8" -> (442L, 3229L, 110104L))
    val got = Queries.main.map { q =>
      val run = Crystal.run(spark, pg, q, Automorphism.symmetryBreaking(q), index)
      run.df.unpersist()
      q.name -> (run.count, run.metrics.shuffledTuples, run.metrics.shuffledBytes)
    }.toMap
    assert(got == want)
  }

  test("TwinTwig's and SEED's decompositions are pinned on every query") {
    def star(piv: Int, lf: Int*) = Seed.StarUnit(piv, lf.toVector)
    def clique(vs: Int*) = Seed.CliqueUnit(vs.toVector)
    val twinTwig = Map(
      "q1" -> Vector((0, Vector(1, 3)), (1, Vector(2)), (2, Vector(3))),
      "q2" -> Vector((0, Vector(1, 2)), (0, Vector(3)), (1, Vector(2))),
      "q3" -> Vector((0, Vector(1, 4)), (1, Vector(2)), (2, Vector(3)), (3, Vector(4))),
      "q4" -> Vector((0, Vector(1, 3)), (1, Vector(2, 4)), (0, Vector(4)), (2, Vector(3))),
      "q5" -> Vector((0, Vector(1, 3)), (1, Vector(2, 4)), (2, Vector(3, 5)), (0, Vector(4))),
      "q6" -> Vector((0, Vector(1, 5)), (1, Vector(2)), (2, Vector(3)), (3, Vector(4)), (4, Vector(5))),
      "q7" -> Vector((0, Vector(3, 4)), (3, Vector(1, 2)), (1, Vector(4, 5)), (0, Vector(5)), (2, Vector(4))),
      "q8" -> Vector((0, Vector(1, 3)), (3, Vector(2, 4)), (0, Vector(5)), (1, Vector(2)), (4, Vector(5))),
      "tq1" -> Vector((0, Vector(1, 2)), (1, Vector(2, 3)), (0, Vector(3))),
      "tq2" -> Vector((0, Vector(1, 2)), (1, Vector(2, 3)), (3, Vector(0, 2))),
      "tq3" -> Vector((3, Vector(0, 1)), (0, Vector(1, 2)), (2, Vector(1, 3)), (3, Vector(4))),
      "tq4" -> Vector((0, Vector(1, 2)), (0, Vector(3, 4)), (1, Vector(2)), (3, Vector(4))),
      "triangle" -> Vector((0, Vector(1, 2)), (1, Vector(2))))
    val seed = Map(
      "q1" -> Vector(star(0, 1, 3), star(1, 2), star(2, 3)),
      "q2" -> Vector(clique(0, 1, 2), star(0, 3)),
      "q3" -> Vector(star(0, 1, 4), star(1, 2), star(2, 3), star(3, 4)),
      "q4" -> Vector(clique(0, 1, 4), star(0, 3), star(1, 2), star(2, 3)),
      "q5" -> Vector(clique(0, 1, 4), star(0, 3), star(1, 2), star(2, 3, 5)),
      "q6" -> Vector(star(0, 1, 5), star(1, 2), star(2, 3), star(3, 4), star(4, 5)),
      "q7" -> Vector(star(0, 3, 4, 5), star(3, 1, 2), star(1, 4, 5), star(2, 4)),
      "q8" -> Vector(star(0, 1, 3, 5), star(3, 2, 4), star(1, 2), star(4, 5)),
      "tq1" -> Vector(clique(0, 1, 2), clique(0, 1, 3)),
      "tq2" -> Vector(clique(0, 1, 2, 3)),
      "tq3" -> Vector(clique(0, 1, 2, 3), star(3, 4)),
      "tq4" -> Vector(clique(0, 1, 2), clique(0, 3, 4)),
      "triangle" -> Vector(clique(0, 1, 2)))
    assert(Queries.all.map(q => q.name -> TwinTwig.decompose(q)).toMap == twinTwig)
    assert(Queries.all.map(q => q.name -> Seed.decompose(q)).toMap == seed)
  }

  test("Crystal index holds exactly the graph's triangles") {
    assert(index.triangles.length == g.triangleCount)
    index.triangles.foreach { case Array(a, b, c) =>
      assert(a < b && b < c)
      assert(g.hasEdge(a, b) && g.hasEdge(b, c) && g.hasEdge(a, c))
    }
  }

  test("Crystal index 4-cliques are genuine and canonical") {
    index.k4s.foreach { case Array(a, b, c, d) =>
      assert(a < b && b < c && c < d)
      Seq((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)).foreach { case (x, y) =>
        assert(g.hasEdge(x, y))
      }
    }
  }

  test("Crystal index is persisted on disk with nonzero size") {
    assert(index.bytesOnDisk > 0)
    assert(Files.exists(index.dir.resolve("cliques3.txt")))
  }

  test("Crystal index's size, clique counts and file contents are pinned") {
    // (bytesOnDisk, triangles, 4-cliques, SHA-256 of cliques2/3/4.txt); the
    // suite's graph has no 4-clique, the denser one has some
    def pin(ix: Crystal.CliqueIndex) = (ix.bytesOnDisk, ix.triangles.length, ix.k4s.length,
      Seq("cliques2.txt", "cliques3.txt", "cliques4.txt").map { f =>
        java.security.MessageDigest.getInstance("SHA-256")
          .digest(Files.readAllBytes(ix.dir.resolve(f))).map(b => f"$b%02x").mkString
      })
    val dense = Crystal.buildIndex(GraphGen.ukLite(300, seed = 7, edgesPerVertex = 4, maxDegree = 48),
      Files.createTempDirectory("crystal-pin"))
    assert(pin(index) == ((857L, 21, 0, Seq(
      "b7e1734c0502e20080c43f327d2bb594d5cf028c8d7bb87a17fb5485df78f014",
      "e05c9591fd28328cf0a101ca0d4a98b78fdb23415c793fde1176d8ab293a6541",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"))))
    assert(pin(dense) == ((12693L, 427, 62, Seq(
      "5c4af0102e80db0a609b70ff8c15ad10dd9e695c6291e8426bde534f1298a34d",
      "85384eb12553e578c2f832250da8223f3712c222f8ff952f7095c4496a7a118c",
      "ec822f271569debdae0b5c25f946249081dd19795120d2144956fdf66cf6dfdd"))))
  }

  test("Crystal seeds from the largest pattern clique") {
    assert(Crystal.largestPatternClique(Queries.tq2).size == 4)
    assert(Crystal.largestPatternClique(Queries.q2).size == 3)
    assert(Crystal.largestPatternClique(Queries.q1).size == 2)
  }
}

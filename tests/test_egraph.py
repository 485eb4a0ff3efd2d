"""Unit tests for the e-graph engine: union-find, hashcons, congruence."""

import pytest

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.unionfind import UnionFind
from repro.lang.term import Term
from saturation_oracle import PostHocExtractor, parent_enodes


class TestUnionFind:
    def test_make_set_sequential_ids(self):
        uf = UnionFind()
        assert [uf.make_set() for _ in range(3)] == [0, 1, 2]

    def test_find_self(self):
        uf = UnionFind()
        a = uf.make_set()
        assert uf.find(a) == a

    def test_union_directs_to_keep(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        root = uf.union(a, b)
        assert root == a
        assert uf.find(b) == a

    def test_union_idempotent(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        uf.union(a, b)
        assert uf.union(a, b) == a

    def test_transitive(self):
        uf = UnionFind()
        a, b, c = (uf.make_set() for _ in range(3))
        uf.union(a, b)
        uf.union(b, c)
        assert uf.in_same_set(a, c)

    def test_path_compression_keeps_correctness(self):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(50)]
        for i in range(49):
            uf.union(ids[i + 1], ids[i])
        root = uf.find(ids[0])
        assert all(uf.find(i) == root for i in ids)


class TestEGraphBasics:
    def test_add_leaf(self):
        egraph = EGraph()
        a = egraph.add_leaf("Cube")
        assert len(egraph) == 1
        assert egraph.nodes(a)[0].op == "Cube"

    def test_hashcons_dedup(self):
        egraph = EGraph()
        a = egraph.add_leaf("Cube")
        b = egraph.add_leaf("Cube")
        assert a == b
        assert len(egraph) == 1

    def test_add_term_structure(self):
        egraph = EGraph()
        term = Term.parse("(Union (Translate 1 2 3 Cube) Cube)")
        root = egraph.add_term(term)
        # Cube is shared: Union, Translate, 1, 2, 3, Cube = 6 classes.
        assert len(egraph) == 6
        assert egraph.lookup_term(term) == egraph.find(root)

    def test_lookup_missing(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube Sphere)"))
        assert egraph.lookup_term(Term.parse("(Union Sphere Cube)")) is None

    def test_classes_with_op(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube (Union Sphere Cube))"))
        union_classes = egraph.classes_with_op("Union")
        assert len(union_classes) == 2

    def test_extract_round_trip(self):
        from repro.egraph.extract import Extractor

        egraph = EGraph()
        term = Term.parse("(Translate 1 2 3 (Scale 4 5 6 Cube))")
        root = egraph.add_term(term)
        assert Extractor(egraph).extract(root) == term


class TestMergeAndRebuild:
    def test_merge_makes_equal(self):
        egraph = EGraph()
        a = egraph.add_leaf("A")
        b = egraph.add_leaf("B")
        egraph.merge(a, b)
        egraph.rebuild()
        assert egraph.is_equal(a, b)
        assert len(egraph) == 1

    def test_congruence_propagates_to_parents(self):
        egraph = EGraph()
        fa = egraph.add_term(Term.parse("(F A)"))
        fb = egraph.add_term(Term.parse("(F B)"))
        assert not egraph.is_equal(fa, fb)
        a = egraph.lookup_term(Term("A"))
        b = egraph.lookup_term(Term("B"))
        egraph.merge(a, b)
        egraph.rebuild()
        assert egraph.is_equal(fa, fb)

    def test_congruence_chains(self):
        egraph = EGraph()
        gfa = egraph.add_term(Term.parse("(G (F A))"))
        gfb = egraph.add_term(Term.parse("(G (F B))"))
        egraph.merge(egraph.lookup_term(Term("A")), egraph.lookup_term(Term("B")))
        egraph.rebuild()
        assert egraph.is_equal(gfa, gfb)

    def test_merge_is_idempotent(self):
        egraph = EGraph()
        a = egraph.add_leaf("A")
        b = egraph.add_leaf("B")
        egraph.merge(a, b)
        egraph.rebuild()
        version = egraph.version
        egraph.merge(a, b)
        egraph.rebuild()
        assert egraph.version == version

    def test_total_enodes_counts_all(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube Sphere)"))
        assert egraph.total_enodes == 3

    def test_merged_class_contains_both_nodes(self):
        egraph = EGraph()
        a = egraph.add_term(Term.parse("(F A)"))
        b = egraph.add_term(Term.parse("(G B)"))
        egraph.merge(a, b)
        egraph.rebuild()
        ops = {node.op for node in egraph.nodes(a)}
        assert ops == {"F", "G"}

    def test_self_loop_via_merge_with_child(self):
        # Merging (Union x x) with x creates a cycle; rebuild must terminate.
        egraph = EGraph()
        x = egraph.add_leaf("X")
        union = egraph.add_enode(ENode("Union", (x, x)))
        egraph.merge(union, x)
        egraph.rebuild()
        assert egraph.is_equal(union, x)

    def test_dump_mentions_operators(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube Sphere)"))
        dump = egraph.dump()
        assert "Union" in dump and "Cube" in dump


class TestParentQueries:
    """The parents log, read through the post-hoc extractor's ``parent_enodes``."""

    def test_parent_enodes_deduplicates_and_canonicalizes(self):
        egraph = EGraph()
        fa = egraph.add_term(Term.parse("(F A)"))
        fb = egraph.add_term(Term.parse("(F B)"))
        a = egraph.lookup_term(Term("A"))
        b = egraph.lookup_term(Term("B"))
        egraph.merge(a, b)
        egraph.rebuild()
        # After the merge (F A) and (F B) are congruent: one canonical parent.
        parents = parent_enodes(egraph, a)
        assert len(parents) == 1
        parent_node, parent_id = parents[0]
        assert parent_node.op == "F"
        assert egraph.find(parent_id) == egraph.find(fa) == egraph.find(fb)

    def test_repair_keeps_absorbing_class_parents(self):
        # Regression: when a congruence merge during _repair folds the
        # repaired class into another class, the survivor's combined parents
        # log must not be overwritten with just the repaired class's
        # snapshot — the worklist extractors rely on its completeness.
        from repro.egraph.extract import TopKExtractor, ast_size_cost

        eg = EGraph()
        a = eg.add_leaf("A")
        c = eg.add_leaf("C")
        inter = eg.add_enode(ENode("Inter", (c, a)))
        mapi1 = eg.add_enode(ENode("Mapi", (a,)))
        union = eg.add_enode(ENode("Union", (inter, c)))
        scale = eg.add_enode(ENode("Scale", (inter, mapi1)))
        mapi2 = eg.add_enode(ENode("Mapi", (scale,)))
        mapi3 = eg.add_enode(ENode("Mapi", (mapi2,)))
        eg.merge(mapi2, scale)
        eg.merge(mapi3, c)
        eg.merge(inter, mapi3)
        eg.rebuild()
        # C's class absorbed several others; Union(C, C) must stay reachable
        # through the parents log for both extractors.
        parent_ops = {node.op for node, _ in parent_enodes(eg, c)}
        assert "Union" in parent_ops
        assert PostHocExtractor(eg).cost_of(union) == 3.0
        best = TopKExtractor(eg, ast_size_cost, k=3).extract_top_k(union)[0]
        assert best.term == Term.parse("(Union C C)")


# ---------------------------------------------------------------------------
# Flat representation: symbol interning, facade decoding, incremental counts
# ---------------------------------------------------------------------------


class TestFlatRepresentation:
    def test_symbols_intern_round_trip(self):
        from repro.egraph.symbols import SymbolTable

        table = SymbolTable()
        a = table.intern("Union")
        b = table.intern(3.5)
        assert table.intern("Union") == a  # idempotent
        assert a != b
        assert table.op(a) == "Union" and table.op(b) == 3.5
        assert table.get("Union") == a
        assert table.get("never-seen") is None
        assert "Union" in table and "never-seen" not in table
        assert len(table) == 2
        assert table.ops() == ("Union", 3.5)

    def test_equal_numeric_operators_share_an_id(self):
        # dict-key semantics, matching the old ENode equality: 1 == 1.0.
        from repro.egraph.symbols import SymbolTable

        table = SymbolTable()
        assert table.intern(1) == table.intern(1.0)
        assert table.op(table.intern(1.0)) == 1  # first spelling wins

    def test_hashcons_keys_are_flat_tuples(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Sphere)"))
        sym = egraph.symbols
        cube = egraph.lookup_term(Term("Cube"))
        sphere = egraph.lookup_term(Term("Sphere"))
        expected = (sym.get("Union"), cube, sphere)
        assert expected in egraph._hashcons
        assert egraph.find(egraph._hashcons[expected]) == root
        assert egraph.flat_nodes(root) == [expected]

    def test_nodes_facade_decodes_and_caches(self):
        egraph = EGraph()
        root = egraph.add_term(Term.parse("(Union Cube Sphere)"))
        nodes = egraph.nodes(root)
        assert [n.op for n in nodes] == ["Union"]
        assert nodes is egraph.nodes(root)  # cached until the class changes
        other = egraph.add_term(Term.parse("(Inter Cube Cube)"))
        egraph.merge(root, other)
        decoded = {n.op for n in egraph.nodes(root)}
        assert decoded == {"Union", "Inter"}  # cache invalidated by the merge

    def test_canonicalize_is_allocation_free_when_canonical(self):
        egraph = EGraph()
        a = egraph.add_leaf("A")
        b = egraph.add_leaf("B")
        node = ENode("Union", (a, b))
        assert node.canonicalize(egraph.find) is node
        flat = (egraph.symbols.intern("Union"), a, b)
        assert egraph.canonical_flat(flat) is flat
        egraph.merge(a, b)
        assert egraph.canonical_flat(flat) is not flat

    def test_incremental_count_tracks_adds_merges_and_rebuild_dedup(self):
        egraph = EGraph()
        a = egraph.add_term(Term.parse("(F A)"))
        b = egraph.add_term(Term.parse("(F B)"))
        assert egraph.total_enodes == 4
        egraph.merge(
            egraph.lookup_term(Term("A")), egraph.lookup_term(Term("B"))
        )
        # Pre-rebuild the merged class holds both (now-duplicate) leaves.
        assert egraph.total_enodes == 4
        egraph.rebuild()  # (F A) and (F B) become congruent and dedupe
        assert egraph.total_enodes == sum(len(c.flat) for c in egraph.classes())
        assert egraph.is_equal(a, b)
        egraph.check_invariants()

    def test_enodes_created_is_monotone(self):
        egraph = EGraph()
        egraph.add_term(Term.parse("(Union Cube Sphere)"))
        created = egraph.enodes_created
        assert created == 3
        egraph.add_term(Term.parse("(Union Cube Sphere)"))  # all hashcons hits
        assert egraph.enodes_created == created
        egraph.merge(
            egraph.lookup_term(Term("Cube")), egraph.lookup_term(Term("Sphere"))
        )
        egraph.rebuild()
        # Rebuild dedup shrinks the live count but never the monotone counter.
        assert egraph.enodes_created == created
        assert egraph.total_enodes <= created

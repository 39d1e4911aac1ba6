"""Unit tests for the graph substrate: adjacency, Dijkstra, D2D, AB."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DisconnectedVenueError, IndoorSpaceBuilder, build_ab_graph, build_d2d_graph
from repro.graph.adjacency import Graph
from repro.graph.dijkstra import (
    dijkstra,
    dijkstra_first_hops,
    path_from_parents,
    pseudo_diameter,
)
from repro.model.d2d import average_out_degree


@st.composite
def cutoff_cases(draw):
    """A graph with small-integer weights (so exact ties at the cutoff
    are common), multi-source offsets, an optional target set and a
    cutoff."""
    n = draw(st.integers(min_value=1, max_value=10))
    vertex = st.integers(min_value=0, max_value=n - 1)
    g = Graph(n)
    for u, v, w in draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 4)),
                                 max_size=3 * n)):
        g.add_edge(u, v, float(w))
    sources = draw(st.dictionaries(vertex, st.integers(0, 3).map(float),
                                   min_size=1, max_size=3))
    targets = draw(st.none() | st.sets(vertex, max_size=n))
    cutoff = float(draw(st.integers(min_value=0, max_value=12)))
    return g, sources, targets, cutoff


class TestGraph:
    def test_add_edge_and_neighbors(self):
        g = Graph(3)
        g.add_edge(0, 1, 2.0)
        assert dict(g.neighbors(0)) == {1: 2.0}
        assert dict(g.neighbors(1)) == {0: 2.0}
        assert g.num_edges == 1

    def test_parallel_edges_keep_minimum(self):
        g = Graph(2)
        g.add_edge(0, 1, 5.0)
        g.add_edge(0, 1, 3.0)
        g.add_edge(0, 1, 9.0)
        assert g.edge_weight(0, 1) == 3.0
        assert g.num_edges == 1

    def test_self_loop_ignored(self):
        g = Graph(2)
        g.add_edge(1, 1, 1.0)
        assert g.num_edges == 0

    def test_negative_weight_raises(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1.0)

    def test_edges_iterates_once(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        edges = sorted(g.edges())
        assert edges == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_connected_components(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        comps = sorted(sorted(c) for c in g.connected_components())
        assert comps == [[0, 1], [2, 3]]
        assert not g.is_connected()

    def test_empty_graph_is_connected(self):
        assert Graph(0).is_connected()

    def test_subgraph(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(2, 3, 3.0)
        sub, mapping = g.subgraph([1, 2])
        assert sub.num_vertices == 2
        assert sub.edge_weight(mapping[1], mapping[2]) == 2.0
        assert sub.num_edges == 1

    def test_degree(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 1.0)
        assert g.degree(0) == 2 and g.degree(2) == 1


class TestDijkstra:
    def diamond(self):
        # 0 -1- 1 -1- 3 ; 0 -3- 2 -0.5- 3
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 3, 1.0)
        g.add_edge(0, 2, 3.0)
        g.add_edge(2, 3, 0.5)
        return g

    def test_basic_distances(self):
        dist, _ = dijkstra(self.diamond(), 0)
        assert dist == {0: 0.0, 1: 1.0, 3: 2.0, 2: 2.5}

    def test_parents_give_shortest_path(self):
        dist, parent = dijkstra(self.diamond(), 0)
        assert path_from_parents(parent, 0, 3) == [0, 1, 3]

    def test_multi_source_offsets(self):
        dist, _ = dijkstra(self.diamond(), {1: 0.0, 2: 0.0})
        assert dist[3] == 0.5
        assert dist[0] == 1.0

    def test_virtual_source_offsets(self):
        dist, _ = dijkstra(self.diamond(), {0: 10.0, 3: 0.0})
        assert dist[1] == 1.0  # through 3

    def test_negative_offset_raises(self):
        with pytest.raises(ValueError):
            dijkstra(self.diamond(), {0: -1.0})

    def test_targets_early_stop(self):
        dist, _ = dijkstra(self.diamond(), 0, targets={1})
        assert 1 in dist
        assert 2 not in dist  # farther than the last target

    def test_cutoff(self):
        dist, _ = dijkstra(self.diamond(), 0, cutoff=1.5)
        assert set(dist) == {0, 1}

    @given(case=cutoff_cases())
    def test_cutoff_keeps_exactly_the_uncut_entries_within_it(self, case):
        """The contract the query-leaf cut rests on: a bounded search
        settles, in the same order and with the same parents, exactly
        the unbounded search's vertices at distance <= cutoff (ties at
        the cutoff kept)."""
        g, sources, targets, cutoff = case
        dist, parent = dijkstra(g, sources, targets=targets)
        cut_dist, cut_parent = dijkstra(g, sources, targets=targets, cutoff=cutoff)
        kept = [v for v, d in dist.items() if d <= cutoff]
        assert list(cut_dist.items()) == [(v, dist[v]) for v in kept]
        assert cut_parent == {v: parent[v] for v in kept}

    def test_first_hops(self):
        _, hops = dijkstra_first_hops(self.diamond(), 0)
        assert hops[1] == 1  # direct edge
        assert hops[3] == 1  # via vertex 1

    def test_first_hops_follow_detour(self):
        # shortest to 2 is 0-1-3-2 = 2.5 (< direct 3.0): first hop is 1
        dist, hops = dijkstra_first_hops(self.diamond(), 0)
        assert dist[2] == 2.5
        assert hops[2] == 1

    def test_pseudo_diameter(self):
        g = Graph(4)
        for i in range(3):
            g.add_edge(i, i + 1, 1.0)
        assert pseudo_diameter(g) == pytest.approx(3.0)

    def test_path_from_parents_missing_target(self):
        _, parent = dijkstra(self.diamond(), 0, targets={1})
        with pytest.raises(KeyError):
            path_from_parents(parent, 0, 2)


class TestD2DGraph:
    def test_clique_per_partition(self, fig1_space):
        g = build_d2d_graph(fig1_space)
        for hall in fig1_space.fixture_halls:
            doors = fig1_space.partitions[hall].door_ids
            for i in range(len(doors)):
                for j in range(i + 1, len(doors)):
                    assert g.has_edge(doors[i], doors[j])

    def test_edge_weights_match_metric(self, fig1_space):
        g = build_d2d_graph(fig1_space)
        hall = fig1_space.fixture_halls[0]
        d1, d2 = fig1_space.partitions[hall].door_ids[:2]
        assert g.edge_weight(d1, d2) == pytest.approx(
            fig1_space.partition_door_distance(hall, d1, d2)
        )

    def test_disconnected_raises(self):
        b = IndoorSpaceBuilder()
        a, c = b.add_room(), b.add_room()
        b.add_exterior_door(a, 0, 0)
        b.add_exterior_door(c, 9, 9)
        space = b.build()
        with pytest.raises(DisconnectedVenueError):
            build_d2d_graph(space)
        g = build_d2d_graph(space, require_connected=False)
        assert g.num_edges == 0

    def test_shared_door_weight_is_minimum_over_partitions(self):
        # a door shared by two partitions contributes edges via both
        b = IndoorSpaceBuilder()
        a, c = b.add_room(floor=0), b.add_room(floor=0)
        b.add_door(a, c, x=0, y=0)
        b.add_door(a, c, x=5, y=0)
        space = b.build()
        g = build_d2d_graph(space)
        assert g.edge_weight(0, 1) == pytest.approx(5.0)

    def test_average_out_degree(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, 1.0)
        assert average_out_degree(g) == pytest.approx(1.0)


class TestABGraph:
    def test_interior_doors_become_edges(self, fig1_space):
        ab = build_ab_graph(fig1_space)
        halls = fig1_space.fixture_halls
        neighbors = {p for p, _ in ab.neighbors(halls[0])}
        assert halls[1] in neighbors

    def test_parallel_door_edges_kept(self):
        b = IndoorSpaceBuilder()
        a, c = b.add_room(), b.add_room()
        b.add_door(a, c, x=0, y=0)
        b.add_door(a, c, x=1, y=0)
        ab = build_ab_graph(b.build())
        assert ab.degree(0) == 2
        assert ab.edge_count() == 2

    def test_exterior_doors_listed(self, fig1_space):
        ab = build_ab_graph(fig1_space)
        exts = [d for lst in ab.exterior_doors for d in lst]
        assert len(exts) == 2

    def test_edge_count_matches_interior_doors(self, fig1_space):
        ab = build_ab_graph(fig1_space)
        interior = sum(
            1 for owners in fig1_space.door_partitions if len(owners) == 2
        )
        assert ab.edge_count() == interior

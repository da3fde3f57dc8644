import collections
import itertools
import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_marked_graphs, brute_trails, repeats_unmarked_type, trail_flags
from trailsum import digraph
from trailsum.digraph import (GraphFormatError, MarkedDigraph, class_graph,
                              count_classes, enumerate_marked_graphs, extend,
                              format_graph, make_gn, opposite,
                              parse_graph, random_feasible_graph, search_space,
                              surgery_in, surgery_out, validate, walk_order)
from trailsum.trails import signed_sum


def graph(n, edges, s, t, marked=()):
    return MarkedDigraph(n, tuple(edges), s, t, frozenset(marked))


def class_graphs(n, k, bmax):
    """The class list's representatives, as graphs."""
    return [class_graph(n, record) for record in enumerate_marked_graphs(n, k, bmax)]


class TestMarkedDigraph:
    def test_rejects_bad_endpoint(self):
        with pytest.raises(ValueError):
            graph(2, [(1, 3)], 1, 2)

    def test_rejects_bad_roots(self):
        with pytest.raises(ValueError):
            graph(2, [(1, 2)], 0, 2)

    def test_rejects_bad_marked_index(self):
        with pytest.raises(ValueError):
            graph(2, [(1, 2)], 1, 2, marked=[2])

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_a_vertex_count_below_one(self, n):
        with pytest.raises(ValueError):
            graph(n, [], 1, 1)

    @pytest.mark.parametrize("n, edges, s, t, marked", [
        (2, ((1.7, 2.9),), 1, 2, ()),       # int() would make it edge (1, 2)
        (2, (), 1.5, 1.5, ()),
        (2.0, ((1, 2),), 1, 2, ()),
        (2, ((1, 2),), 1, 2, (1.0,)),
        # format_graph would write "s True", which parse_graph rejects
        (2, ((True, 2), (2, 1), (1, 2)), True, 2, ()),
    ])
    def test_rejects_non_integers(self, n, edges, s, t, marked):
        with pytest.raises(TypeError):
            MarkedDigraph(n, edges, s, t, frozenset(marked))

    def test_marked_indices_sorted(self):
        g = graph(1, [(1, 1)] * 3, 1, 1, marked=[3, 1])
        assert g.marked_indices() == (1, 3)


class TestValidate:
    # validate returns the verdict alone; trail_flags (tests/oracles.py)
    # spells out the balance and connectivity it decides on.

    def test_gn2_profile(self):
        g = make_gn(2, 1)
        assert validate(g) is True
        assert trail_flags(g) == (True, True, True)

    def test_single_loop(self):
        g = graph(1, [(1, 1)], 1, 1)
        assert validate(g) is True
        assert trail_flags(g) == (True, True, True)

    def test_unbalanced(self):
        g = graph(2, [(1, 2)], 1, 1)
        assert validate(g) is False
        assert trail_flags(g) == (False, True, False)

    def test_disconnected_infeasible(self):
        g = graph(3, [(1, 2), (2, 1), (3, 3)], 1, 1)
        assert validate(g) is False
        assert trail_flags(g) == (True, False, False)

    def test_untouched_root_infeasible(self):
        g = graph(2, [(2, 2)], 1, 1)
        assert validate(g) is False
        assert trail_flags(g) == (True, True, False)

    def test_flags_do_not_depend_on_untouched_vertices(self):
        # every multiset of (2,4,2) at every root pair, unbalanced and
        # disconnected ones included, keeps its verdict on 50 vertices
        seen = set()
        types = [(u, v, f) for u in (1, 2) for v in (1, 2) for f in (0, 1)]
        for s, t in itertools.product((1, 2), repeat=2):
            for combo in itertools.combinations_with_replacement(types, 4):
                edges = [(u, v) for u, v, _ in combo]
                marked = [i for i, (_, _, f) in enumerate(combo, start=1) if f]
                if len(marked) > 2:
                    continue
                g = graph(2, edges, s, t, marked)
                flags = trail_flags(g)
                assert validate(g) is validate(graph(50, edges, s, t, marked)) is flags[2]
                seen.add(flags)
        assert len(seen) == 5       # every reachable combination of the flags

    def test_matches_brute_force(self):
        # seeded random multisets at every root pair, feasible or not
        rng = random.Random(19)
        seen = collections.Counter()
        for _ in range(60):
            n, k = rng.randint(1, 3), rng.randint(0, 6)
            edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(k)]
            marked = [i for i in range(1, k + 1) if rng.random() < 0.3]
            for s, t in itertools.product(range(1, n + 1), repeat=2):
                g = graph(n, edges, s, t, marked)
                balanced, _, feasible = trail_flags(g)
                outdeg = collections.Counter(u for u, _ in edges) + collections.Counter([t])
                indeg = collections.Counter(v for _, v in edges) + collections.Counter([s])
                assert balanced == (outdeg == indeg)
                assert validate(g) is feasible is bool(brute_trails(g))
                seen[balanced, feasible] += 1
        assert set(seen) == {(False, False), (True, False), (True, True)}

    def test_random_feasible_graphs_are_balanced(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_feasible_graph(rng, rng.randint(1, 4), rng.randint(1, 6), bmax=3)
            assert validate(g) is True
            assert trail_flags(g)[0]


class TestMakeGn:
    def test_g2(self):
        g = make_gn(2, 1)
        assert g.edges == ((1, 2), (2, 1), (1, 1), (1, 2), (2, 2))
        assert g.marked == frozenset({1, 2})
        assert (g.s, g.t) == (1, 2)

    def test_g3_tail(self):
        g = make_gn(3, 1)
        assert g.k == 9
        assert g.edges[4:] == ((2, 3), (3, 1), (1, 3), (3, 2), (3, 3))

    def test_edge_count(self):
        for n in (2, 3, 4, 5):
            for mbar in (1, 2, 3):
                assert make_gn(n, mbar).k == 2 * mbar + 4 * n - 5

    def test_always_feasible(self):
        for n in (2, 3, 4):
            for mbar in (1, 2):
                assert validate(make_gn(n, mbar))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            make_gn(1, 1)
        with pytest.raises(ValueError):
            make_gn(2, 0)


class TestExtend:
    def test_single_loop(self):
        g = extend(graph(1, [(1, 1)], 1, 1))
        assert (g.n, g.k) == (2, 3)
        assert (g.s, g.t) == (2, 2)
        assert g.edges == ((2, 1), (1, 1), (1, 2))

    def test_adds_two_edges_and_shifts_marking(self):
        g = make_gn(2, 1)
        ge = extend(g)
        assert ge.k == g.k + 2
        assert ge.marked == frozenset({2, 3})
        assert validate(ge)


class TestOpposite:
    def test_involution(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_feasible_graph(rng, rng.randint(1, 3), rng.randint(1, 5), bmax=3)
            assert opposite(opposite(g)) == g

    def test_g2(self):
        g = opposite(make_gn(2, 1))
        assert g.edges == ((2, 1), (1, 2), (1, 1), (2, 1), (2, 2))
        assert (g.s, g.t) == (2, 1)
        assert g.marked == frozenset({1, 2})


class TestSurgeries:
    def test_surgery_in(self):
        g = graph(2, [(1, 2), (2, 1)], 1, 2, marked=[1])
        out = surgery_in(g, 1, 2)
        assert out.edges == ((2, 2), (2, 2))
        assert out.marked == g.marked
        assert out.k == g.k

    def test_surgery_out(self):
        g = graph(2, [(1, 2), (2, 2)], 1, 2)
        out = surgery_out(g, 1, 2)
        assert out.edges == ((2, 2), (1, 2))
        assert out.k == g.k

    def test_preconditions(self):
        g = graph(2, [(1, 1), (1, 2), (2, 2)], 1, 2)
        with pytest.raises(ValueError):
            surgery_in(g, 1, 2)  # a is a loop
        with pytest.raises(ValueError):
            surgery_in(g, 2, 2)  # c must differ from a
        with pytest.raises(ValueError):
            surgery_in(g, 2, 3)  # c does not end at the tail of a
        with pytest.raises(ValueError):
            surgery_out(g, 2, 1)  # d does not start at the head of a

    @pytest.mark.parametrize("a, c", [(0, 2), (4, 2), (2, 0), (2, 4)])
    def test_surgery_in_rejects_an_index_out_of_range(self, a, c):
        with pytest.raises(ValueError):
            surgery_in(graph(2, [(1, 1), (1, 2), (2, 2)], 1, 2), a, c)

    @pytest.mark.parametrize("a, d", [
        (0, 3), (4, 3), (2, 0), (2, 4),     # out of range
        (1, 2),                             # a is a loop
        (2, 2),                             # d must differ from a
    ])
    def test_surgery_out_rejects(self, a, d):
        with pytest.raises(ValueError):
            surgery_out(graph(2, [(1, 1), (1, 2), (2, 2)], 1, 2), a, d)

    def test_extended_virtual_in_surgery_restricts_to_new_roots(self):
        # Redirecting the virtual entry edge onto the head of a leaves, inside
        # the original vertex set, the graph with a looped at its head and
        # roots moved to (head of a, t).
        g = make_gn(2, 1)
        ge = extend(g)
        a = 2  # original edge 1, a non-loop (1,2)
        out = surgery_in(ge, a, 1)
        assert out.edges[0] == (g.n + 1, g.edges[0][1])
        inner = tuple(out.edges[1:-1])
        expected = list(g.edges)
        expected[0] = (g.edges[0][1], g.edges[0][1])
        assert inner == tuple(expected)


class TestEnumeration:
    def test_one_vertex_two_loops_unmarked(self):
        classes = class_graphs(1, 2, 0)
        assert len(classes) == 1
        g = classes[0]
        assert g.edges == ((1, 1), (1, 1)) and not g.marked

    def test_one_vertex_two_loops_bmax2(self):
        classes = class_graphs(1, 2, 2)
        assert len(classes) == 3
        assert sorted(len(g.marked) for g in classes) == [0, 1, 2]

    def test_all_yielded_graphs_feasible(self):
        records = enumerate_marked_graphs(2, 4, 2)
        for record in records:
            assert validate(class_graph(2, record))
        tallies = [count_classes(2, 4, 2, roots) for roots in itertools.product((1, 2), repeat=2)]
        feasible, _, infeasible = map(sum, zip(*tallies))
        assert len(records) == feasible > 0
        assert infeasible > 0
        # the rest of the space is unbalanced
        assert feasible + infeasible < search_space(2, 4, 2)

    def test_no_duplicate_canonical_keys(self):
        seen = set()
        for g in class_graphs(2, 3, 1):
            key = (tuple(sorted((u, v, i in g.marked)
                                for i, (u, v) in enumerate(g.edges, start=1))), g.s, g.t)
            assert key not in seen
            seen.add(key)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_marked_graphs(0, 1, 0)

    @pytest.mark.parametrize("n, k, bmax", [
        (1, 1, 0), (1, 2, 2), (2, 3, 1), (2, 4, 0), (2, 4, 2),
        (2, 5, 5), (2, 6, 3), (3, 4, 1), (3, 5, 2), (3, 6, 2), (4, 1, 0),
    ])
    def test_matches_brute_force_stream(self, n, k, bmax):
        # the brute force draws every multiset of the search space, root pair
        # by root pair; walk_order sorts each root pair's records as listed
        fast = enumerate_marked_graphs(n, k, bmax)
        brute = brute_marked_graphs(n, k, bmax)
        assert [class_graph(n, record) for record in fast] == list(brute)
        assert len(fast) == brute.yielded > 0
        assert brute.yielded + brute.skipped_unbalanced + brute.skipped_infeasible \
            == search_space(n, k, bmax)
        records = collections.defaultdict(list)
        for record in fast:
            records[record[:2]].append(record)
        for listed in records.values():
            assert sorted(listed, key=walk_order) == listed

    @pytest.mark.parametrize("n, k, bmax", [
        pytest.param(n, k, bmax, id=f"{n}-{k}-{bmax}-1")     # the brute force's cap of 1
        for n, k, bmax in [(1, 4, 4), (2, 4, 2), (2, 6, 3), (3, 5, 2)]])
    def test_capped_stream_matches_brute_force(self, n, k, bmax):
        # the listed records whose graphs repeat no unmarked type, the classes
        # the trail DP decides, are the brute-force stream's with a cap of 1
        fast = [g for g in class_graphs(n, k, bmax) if not repeats_unmarked_type(g)]
        brute = brute_marked_graphs(n, k, bmax, cap=1)
        assert fast == list(brute)
        assert len(fast) == brute.yielded > 0

    def test_many_loops_drain_without_hopeless_picks(self):
        # (a unmarked, 3000 - a marked) loops for each a: the last type takes
        # every edge left, so the list makes 3001 picks of it, not 3001 * 3000 / 2
        start = time.perf_counter()
        assert len(enumerate_marked_graphs(1, 3000, 3000)) == 3001
        assert time.perf_counter() - start < 2
        assert count_classes(1, 3000, 3000, (1, 1)) == (3001, 0, 0)
        assert search_space(1, 3000, 3000) == 3001     # so none is unbalanced

    @pytest.mark.parametrize("n, k, bmax", [(2, 5, 2), (3, 5, 2)])
    def test_root_pairs_of_one_kind_look_alike(self, n, k, bmax):
        # The exhaustive searches decide (1, 1) and (1, 2) only and scale by
        # the size of the root orbit; this is the invariance that rests on.
        def counters(stream):
            return stream.yielded, stream.skipped_unbalanced, stream.skipped_infeasible

        listed = enumerate_marked_graphs(n, k, bmax)
        tallies = {True: set(), False: set()}
        for s, t in itertools.product(range(1, n + 1), repeat=2):
            fast = [record for record in listed if record[:2] == (s, t)]
            brute = brute_marked_graphs(n, k, bmax, [(s, t)])
            histogram = collections.Counter()
            for a, b in itertools.zip_longest(fast, brute):
                assert class_graph(n, a) == b
                histogram[signed_sum(b).T] += 1
            assert counters(brute) == count_classes(n, k, bmax, (s, t))
            assert len(fast) == brute.yielded
            tallies[s == t].add((counters(brute), frozenset(histogram.items())))
        assert len(tallies[True]) == len(tallies[False]) == 1
        assert [size for _, size in digraph.root_orbits(n)] == [n, n * (n - 1)]


def _drained(stream):
    collections.deque(stream, maxlen=0)
    return stream.yielded, stream.skipped_unbalanced, stream.skipped_infeasible


def _listed_at(records, roots):
    """The records of a class list at one root pair."""
    return sum(record[:2] == roots for record in records)


class TestCountClasses:
    # every size the class list and the class search run at in the tests
    @pytest.mark.parametrize("n, k, bmax", [
        (1, 1, 0), (1, 2, 0), (1, 2, 2), (1, 3, 2), (1, 256, 256), (2, 3, 1), (2, 4, 0),
        (2, 4, 1), (2, 4, 2), (2, 5, 2), (2, 5, 5), (2, 6, 3), (2, 7, 3), (3, 4, 0),
        (3, 4, 1), (3, 5, 2), (3, 6, 2), (4, 1, 0),
    ])
    def test_matches_walk_and_brute_force(self, n, k, bmax):
        records = enumerate_marked_graphs(n, k, bmax)
        for roots, _ in digraph.root_orbits(n):
            brute = brute_marked_graphs(n, k, bmax, [roots])
            tally = count_classes(n, k, bmax, roots)
            assert tally == _drained(brute)
            assert tally[0] == _listed_at(records, roots)

    # past the brute force's reach: CI cells and the 3,000-loop list.  The list
    # holds the feasible classes alone; the exhaustive digests in CI pin the
    # unbalanced and infeasible counts of the CI cells.
    @pytest.mark.parametrize("n, k, bmax", [
        (1, 3000, 3000), (2, 8, 5), (2, 11, 8), (3, 7, 2), (3, 8, 3), (4, 6, 2),
    ])
    def test_matches_walk(self, n, k, bmax):
        records = enumerate_marked_graphs(n, k, bmax)
        for roots, _ in digraph.root_orbits(n):
            tally = count_classes(n, k, bmax, roots)
            assert tally[0] == _listed_at(records, roots)
            assert sum(tally) == search_space(n, k, bmax) // n ** 2

    def test_one_root_pair_of_the_space(self):
        # the counters add up to the multisets at one root pair
        assert sum(count_classes(3, 12, 5, (1, 2))) == search_space(3, 12, 5) // 9

    @pytest.mark.parametrize("n, k, bmax, roots", [
        (0, 1, 0, (1, 1)), (2, 0, 1, (1, 1)), (2, 1, -1, (1, 1)), (2, 3, 1, (1, 3)),
        (2, 3, 1, (0, 1))])
    def test_bad_arguments(self, n, k, bmax, roots):
        with pytest.raises(ValueError):
            count_classes(n, k, bmax, roots)


class TestSearchSpace:
    @pytest.mark.parametrize("n, k, bmax, space", [
        (3, 6, 2, 331_749), (3, 7, 2, 822_393), (1, 2, 2, 3), (2, 3, 0, 80),
    ])
    def test_values(self, n, k, bmax, space):
        assert search_space(n, k, bmax) == space

    def test_large_space_exceeds_default_guard(self):
        assert 2.5e10 < search_space(4, 12, 3) < 2.7e10

    def test_bound_above_k_counts_every_multiset(self):
        assert search_space(2, 5, 5) == search_space(2, 5, 9) == 4 * math.comb(12, 5)


def _relabelled(rng, g):
    """g with its vertices permuted at random and its edges listed in random order."""
    p = list(range(1, g.n + 1))
    rng.shuffle(p)
    order = list(range(1, g.k + 1))
    rng.shuffle(order)
    edges = tuple((p[g.edges[i - 1][0] - 1], p[g.edges[i - 1][1] - 1]) for i in order)
    marked = frozenset(j for j, i in enumerate(order, start=1) if i in g.marked)
    return MarkedDigraph(g.n, edges, p[g.s - 1], p[g.t - 1], marked)


class TestRootOrbits:
    def test_T_invariant_under_relabelling_and_opposite(self):
        # search_classes scales the root pairs (1, 1) and (1, 2) by their
        # orbit sizes under vertex relabelling, which keeps T
        rng = random.Random(316)
        for _ in range(150):
            g = random_feasible_graph(rng, rng.randint(1, 4), rng.randint(1, 7), bmax=3)
            T = signed_sum(g).T
            for h in (_relabelled(rng, g), opposite(g), opposite(_relabelled(rng, g))):
                assert signed_sum(h).T == T, (g, h)


class TestRandomFeasible:
    def test_seeded_and_feasible(self):
        a = random_feasible_graph(random.Random(42), 3, 6, bmax=3)
        b = random_feasible_graph(random.Random(42), 3, 6, bmax=3)
        assert a == b
        assert validate(a)

    def test_require_nonloop(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_feasible_graph(rng, 2, 3, bmax=0, require_nonloop=True)
            assert any(u != v for u, v in g.edges)

    @pytest.mark.parametrize("n, k", [(2, 0), (1, 3)])
    def test_require_nonloop_is_refused_where_none_can_be_drawn(self, n, k):
        rng = random.Random(1)
        rng.randint = lambda a, b: pytest.fail("drew a graph with no non-loop edge")
        with pytest.raises(ValueError):
            random_feasible_graph(rng, n, k, 0, require_nonloop=True)


class TestTextFormat:
    def test_golden_g2(self):
        text = format_graph(make_gn(2, 1))
        assert text == ("n 2 s 1 t 2\n"
                        "1 2 1\n"
                        "2 1 1\n"
                        "1 1 0\n"
                        "1 2 0\n"
                        "2 2 0\n")
        assert parse_graph(text) == make_gn(2, 1)

    def test_comments_and_blank_lines(self):
        text = "# witness\n\nn 1 s 1 t 1\n1 1 1  # a marked loop\n"
        g = parse_graph(text)
        assert g.edges == ((1, 1),) and g.marked == {1}

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(40):
            g = random_feasible_graph(rng, rng.randint(1, 4), rng.randint(1, 6), bmax=4)
            assert parse_graph(format_graph(g)) == g

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("m 2 s 1 t 2\n", 1),
        ("n 2 s 1 t 2\n1 2\n", 2),
        ("n 2 s 1 t 2\n1 2 2\n", 2),
        ("n 2 s 1 t 2\nx 2 1\n", 2),
        ("n x s 1 t 2\n", 1),
        ("n 2 s 1 t 2\n1 3 0\n", 2),
        ("n 3 s 1 t 1\n1 2 0\n2 1 0\n\n# c\n1 9 0\n", 6),
        ("# c\nn 2 s 1 t 3\n", 2),
        ("# c\n\nn 0 s 1 t 1\n", 3),
        ("n 3 s 1 t 1\n\u0663 1 0\n1 3 0\n", 2),
        ("n 1_0 s 1 t 1\n", 1),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert err.value.line == line


@given(st.integers(2, 4), st.integers(1, 3))
def test_gn_text_round_trip(n, mbar):
    g = make_gn(n, mbar)
    assert parse_graph(format_graph(g)) == g

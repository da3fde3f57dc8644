import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (brute_filtered_sum, brute_marked_graphs, brute_signed_sum,
                     brute_trails, inversion_sign, repeats_unmarked_type, trail_flags,
                     walk_steps)
from trailsum.digraph import (MarkedDigraph, class_graph, enumerate_marked_graphs,
                              extend, make_gn, opposite, random_feasible_graph)
from trailsum.trails import (_TAIL_EDGES, DEFAULT_NODE_BUDGET, AtPosition,
                             BudgetExceededError, Precedes, Subtrail, _trail_count,
                             class_sums, filtered_signed_sum, invert_permutation, is_trail,
                             marked_order_sign, relabel, sgn_perm, sigma_M,
                             signed_sum, signed_trails, swan_identity,
                             swap_parallel_subtrails, trail_signs)


def graph(n, edges, s, t, marked=()):
    return MarkedDigraph(n, tuple(edges), s, t, frozenset(marked))


def path_graph(k):
    return graph(k + 1, [(i, i + 1) for i in range(1, k + 1)], 1, k + 1)


def listed(g, max_nodes=DEFAULT_NODE_BUDGET):
    """The trails signed_trails lists, without their signs."""
    return [trail for trail, _, _ in signed_trails(g, max_nodes)]


# Either side of the walk's tail depth (_TAIL_EDGES = 5 edges left): G_2 with
# mbar=1 has k = 5, so its root stores completions, and a marked loop at its
# source gives k = 6, so its root alone stores moves.
G2_K6 = graph(2, make_gn(2, 1).edges + ((1, 1),), 1, 2, marked=(1, 2, 6))


def assert_budget_stops(g, found, budgets):
    """Each walk stopped at a budget yields, with the same steps after each
    trail, exactly the trails of found (walk_steps) whose last step fits."""
    top = max(budgets)
    signed = [((t, *trail_signs(g, t)), steps) for t, steps in found if steps <= top]
    for max_nodes in budgets:
        stopped = signed_trails(g, max_nodes=max_nodes)
        got = []
        with pytest.raises(BudgetExceededError) as info:
            for item in stopped:
                got.append((item, stopped.steps))
        assert got == [(item, steps) for item, steps in signed if steps <= max_nodes]
        assert info.value.nodes == stopped.steps == max_nodes + 1


def random_graphs(seed, count, n_max=3, k_max=6, bmax=3, k_min=1):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_feasible_graph(rng, rng.randint(1, n_max),
                                    rng.randint(k_min, k_max), bmax=bmax), rng


class TestSgnPerm:
    def test_identity(self):
        assert sgn_perm((1, 2, 3)) == 1

    def test_transposition(self):
        assert sgn_perm((2, 1, 3)) == -1

    def test_three_inversions(self):
        assert sgn_perm((2, 4, 1, 3)) == -1

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            sgn_perm((1, 1, 2))

    def test_accepts_any_sequence(self):
        assert sgn_perm([2, 1]) == sgn_perm(iter((2, 1))) == -1

    @pytest.mark.parametrize("perm", [(True,), (2, True), (1.0,)])
    def test_rejects_non_integers(self, perm):
        with pytest.raises(TypeError):
            sgn_perm(perm)

    @settings(derandomize=True, max_examples=300)
    @given(st.integers(0, 12).flatmap(lambda k: st.permutations(range(1, k + 1))))
    def test_matches_inversion_count(self, perm):
        assert sgn_perm(perm) == inversion_sign(perm)

    @settings(derandomize=True, max_examples=300)
    @given(st.lists(st.integers(-1, 10), max_size=9))
    @example([0])
    @example([1, 3])
    @example([2, 2])
    @example([3, 1, 3])
    @example([-1, 1])
    def test_rejects_exactly_the_non_permutations(self, seq):
        if sorted(seq) == list(range(1, len(seq) + 1)):
            assert sgn_perm(seq) == inversion_sign(seq)
        else:
            with pytest.raises(ValueError):
                sgn_perm(seq)


class TestInvertPermutation:
    def test_rejects_a_repeat(self):
        with pytest.raises(ValueError):
            invert_permutation((1, 1))

    def test_rejects_a_value_out_of_range(self):
        with pytest.raises(ValueError):
            invert_permutation((0,))

    @pytest.mark.parametrize("perm", [(True,), (2, True)])
    def test_rejects_bools(self, perm):
        with pytest.raises(TypeError):
            invert_permutation(perm)


class TestSigmaM:
    def test_identity_any_subset(self):
        assert sigma_M((1, 2, 3, 4), [2, 4]) == (1, 2)

    def test_two_element_rule(self):
        # pattern is the identity exactly when sigma(j1) < sigma(j2)
        assert sigma_M((3, 1, 2), [1, 3]) == (2, 1)
        assert sigma_M((1, 3, 2), [1, 3]) == (1, 2)

    def test_worked_example(self):
        assert sigma_M((2, 4, 1, 3), [2, 4]) == (2, 1)
        assert sgn_perm(sigma_M((2, 4, 1, 3), [2, 4])) == -1

    def test_rejects_bad_subset(self):
        with pytest.raises(ValueError):
            sigma_M((1, 2), [3])

    # ties would share one rank: (5, 5) on [1, 2] gave (1, 1), and (1, 2, 2)
    # on [1, 2, 3] gave (1, 2, 2)
    @pytest.mark.parametrize("perm, M", [((5, 5), [1, 2]), ((1, 2, 2), [1, 2, 3]),
                                         ((0, 1), [1]), ((2, 3), [])])
    def test_rejects_a_non_permutation(self, perm, M):
        with pytest.raises(ValueError, match="not a permutation"):
            sigma_M(perm, M)

    @pytest.mark.parametrize("perm, M", [((2, 1), [True]), ((2, True), [1, 2])])
    def test_rejects_bools(self, perm, M):
        with pytest.raises(TypeError):
            sigma_M(perm, M)

    def test_marked_order_sign_is_sigma_m_of_inverse(self):
        rng = random.Random(2)
        for _ in range(100):
            k = rng.randint(1, 8)
            sigma = list(range(1, k + 1))
            rng.shuffle(sigma)
            marked = rng.sample(range(1, k + 1), rng.randint(0, k))
            expected = sgn_perm(sigma_M(invert_permutation(sigma), sorted(marked)))
            assert marked_order_sign(sigma, marked) == expected


class TestMarkedOrderSign:
    def test_matches_the_inversion_count(self):
        rng = random.Random(3)
        for _ in range(100):
            k = rng.randint(0, 8)
            sigma = rng.sample(range(1, k + 1), k)
            marked = rng.sample(range(1, k + 1), rng.randint(0, k))
            assert marked_order_sign(sigma, marked) == inversion_sign(
                [e for e in sigma if e in marked])

    # each of these returned 1 before the arguments were checked
    @pytest.mark.parametrize("sigma, marked", [((2, 2, 1), [2, 1]), ((0, 1), [1]),
                                               ((1, 2), [3]), ((1, 2), [0])])
    def test_rejects_a_non_permutation_or_a_stray_mark(self, sigma, marked):
        with pytest.raises(ValueError):
            marked_order_sign(sigma, marked)

    @pytest.mark.parametrize("sigma, marked", [((1.0, 2), [1.0]), ((True, 2), [2]),
                                               ((1, 2), [True]), ((1, 2), [1.0])])
    def test_rejects_non_integers(self, sigma, marked):
        with pytest.raises(TypeError):
            marked_order_sign(sigma, marked)


class TestTrailSigns:
    # (1, 2, 3) gave (1, 1) for three of the five edges
    @pytest.mark.parametrize("seq", [(1, 2, 3), (2, 1, 3, 4, 5), (1, 1, 3, 4, 5), ()])
    def test_rejects_a_non_trail(self, seq):
        with pytest.raises(ValueError, match="not a trail"):
            trail_signs(make_gn(2, 1), seq)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            trail_signs(make_gn(2, 1), (1.0, 2, 3, 4, 5))

    def test_empty_graph(self):
        assert trail_signs(graph(1, [], 1, 1), ()) == (1, 1)
        with pytest.raises(ValueError):
            trail_signs(graph(2, [], 1, 2), ())


class TestIsTrail:
    @pytest.mark.parametrize("g, sigma, expected", [
        (make_gn(2, 1), (1, 2, 3, 4, 5), True),
        (make_gn(2, 1), (1, 1, 3, 4, 5), False),       # not a permutation
        (make_gn(2, 1), (1, 2, 3), False),             # too short
        (make_gn(2, 1), (2, 1, 3, 4, 5), False),       # starts at 2, not at s = 1
        (make_gn(2, 1), (1, 2, 4, 5, 3), False),       # ends at 1, not at t = 2
        (make_gn(2, 1), (1, 3, 2, 4, 5), False),       # (1,2) then (1,1) breaks
        (graph(1, [], 1, 1), (), True),
        (graph(2, [], 1, 2), (), False),
    ])
    def test_verdicts(self, g, sigma, expected):
        assert is_trail(g, sigma) is expected

    @pytest.mark.parametrize("sigma", [(True, 2, 3, 4, 5), (1.0, 2, 3, 4, 5)])
    def test_rejects_non_integers(self, sigma):
        with pytest.raises(TypeError):
            is_trail(make_gn(2, 1), sigma)


class TestEnumerateTrails:
    """Every trail once, in lexicographic order, as signed_trails lists them."""

    def test_two_loops(self):
        g = graph(1, [(1, 1), (1, 1)], 1, 1)
        assert listed(g) == [(1, 2), (2, 1)]

    def test_single_edge(self):
        g = graph(2, [(1, 2)], 1, 2)
        assert listed(g) == [(1,)]

    def test_g2_has_eight_trails(self):
        assert len(listed(make_gn(2, 1))) == 8

    def test_empty_graph(self):
        assert listed(graph(1, [], 1, 1)) == [()]
        assert listed(graph(2, [], 1, 2)) == []

    def test_infeasible_graph_yields_nothing(self):
        assert listed(graph(2, [(1, 2)], 1, 1)) == []

    def test_matches_unpruned_enumeration(self):
        for g, _ in random_graphs(21, 40, k_max=5):
            got = listed(g)
            assert got == sorted(brute_trails(g))
            assert all(is_trail(g, t) for t in got)

    def test_lexicographic_order(self):
        for g, _ in random_graphs(22, 20, k_max=6):
            seqs = listed(g)
            assert seqs == sorted(seqs)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            listed(make_gn(2, 2), max_nodes=3)

    def test_long_path_is_not_bounded_by_recursion(self):
        assert listed(path_graph(1200)) == [tuple(range(1, 1201))]


class TestSignedTrails:
    def test_matches_trail_signs_and_brute_force(self):
        for g, _ in random_graphs(27, 80, k_max=6, bmax=4):
            got = list(signed_trails(g))
            assert got == [(t, *trail_signs(g, t)) for t in listed(g)]
            marked = set(g.marked)
            assert got == [(per, inversion_sign(per),
                            inversion_sign([e for e in per if e in marked]))
                           for per in sorted(brute_trails(g))]

    def test_steps_match_a_plain_walk(self):
        # the memoized walk charges each trail, and the whole walk, exactly
        # the steps a depth-first walk with no memo counts
        graphs = [g for g, _ in random_graphs(28, 60, k_max=6, bmax=4)]
        for g in graphs + [make_gn(2, 1), G2_K6, make_gn(2, 2), make_gn(3, 2)]:
            walk = signed_trails(g)
            assert ([(t, walk.steps) for t, _, _ in walk], walk.steps) == walk_steps(g)

    def test_budget_stops_on_random_graphs(self):
        # k <= 5 makes the root a tail list, and small graphs reuse lists:
        # every budget below a walk of at most 20 steps, else a seeded sample
        rng = random.Random(32)
        for g, _ in random_graphs(28, 60, k_max=6, bmax=4):
            found, total = walk_steps(g)
            budgets = range(total) if total <= 20 else sorted(rng.sample(range(total), 20))
            assert_budget_stops(g, found, budgets)

    def test_witness_graph_counts_and_budget(self):
        # G_3 mbar=3: 51,840 trails, 294,351 extension steps, 1,981 states
        # (used edges, head) flooded; 541 tail states besides the finished one
        # store 1,460 completions, and one with r edges left has at most r!
        g = make_gn(3, 3)
        walk = signed_trails(g, max_nodes=294351)
        got = list(walk)
        assert got == [(t, *trail_signs(g, t)) for t in listed(g)]
        assert len(got) == 51840
        assert (walk.steps, walk.floods) == (294351, 1981)
        lists = [(g.k - used.bit_count(), stored) for known in walk._memo.values()
                 for used, stored in known.items()
                 if stored not in (True, False) and 0 < g.k - used.bit_count() <= _TAIL_EDGES]
        assert (len(lists), sum(len(stored) - 1 for _, stored in lists)) == (541, 1460)
        assert all(len(stored) - 1 <= math.factorial(r) for r, stored in lists)
        with pytest.raises(BudgetExceededError):
            list(signed_trails(g, max_nodes=294350))

    def test_budget_boundary_is_exact(self):
        g = make_gn(3, 2)
        walk = signed_trails(g)
        trails = list(walk)
        assert list(signed_trails(g, max_nodes=walk.steps)) == trails
        with pytest.raises(BudgetExceededError):
            list(signed_trails(g, max_nodes=walk.steps - 1))

    @pytest.mark.parametrize("n, mbar, total, sample", [(2, 1, 37, None),
                                                         (2, 2, 481, None),
                                                         (3, 2, 12179, 60)])
    def test_budget_stop_yields_the_same_prefix(self, n, mbar, total, sample):
        # Every budget below the total (G_2) or a seeded sample (G_3): the
        # stopped walk yields exactly the trails whose last step fits.
        g = make_gn(n, mbar)
        found, steps = walk_steps(g)
        assert steps == total
        budgets = range(total)
        if sample is not None:
            budgets = random.Random(31).sample(budgets, sample)
        assert_budget_stops(g, found, budgets)

    def test_budget_stop_one_frame_above_the_tail_lists(self):
        found, total = walk_steps(G2_K6)
        assert total == 124
        assert_budget_stops(G2_K6, found, range(total))

    def test_budget_stop_inside_a_stored_list(self):
        # G_3 mbar=3: the trails that share their first k - 5 edges are one
        # visit of a tail state's stored list.  Among the first 1,800 of the
        # 18,072 visits, take the first (which builds its list), the first
        # that reuses a list and six seeded others, and stop at the list's
        # first entry, at its second, at its last and right after its last.
        g = make_gn(3, 3)
        found, _ = walk_steps(g)
        visits = {}
        for trail, steps in found:
            visits.setdefault(trail[:g.k - _TAIL_EDGES], []).append(steps)
        assert len(visits) == 18072
        prefixes = list(visits)[:1800]
        states = [(frozenset(prefix), g.edges[prefix[-1] - 1][1]) for prefix in prefixes]
        reused = next(i for i, state in enumerate(states) if state in states[:i])
        steps = [visits[prefix] for prefix in prefixes]
        budgets = set()
        for i in [0, reused] + random.Random(41).sample(range(1800), 6):
            budgets.update((steps[i][0] - 1, steps[i][0], steps[i][-1] - 1, steps[i][-1]))
        assert_budget_stops(g, found, sorted(budgets))

    def test_counters_follow_the_stream(self):
        walk = signed_trails(make_gn(2, 2))
        assert (walk.steps, walk.floods) == (0, 0)
        next(walk)
        first = (walk.steps, walk.floods)
        assert first[0] >= 5 and first[1] >= 1
        list(walk)
        assert walk.steps > first[0] and walk.floods >= first[1]

    @staticmethod
    def assert_flood_verdicts(g):
        """Each state (used edges, head) left in the memo, the finished one
        aside, admits a trail of its edges left from head to t exactly when
        trail_flags (tests/oracles.py) says so."""
        walk = signed_trails(g)
        list(walk)
        full = (1 << g.k) - 1
        verdicts = [(used, head, stored is not False) for head, known in walk._memo.items()
                    for used, stored in known.items() if used != full]
        assert len(verdicts) >= walk.floods
        for used, head, verdict in verdicts:
            left = tuple(g.edges[i] for i in range(g.k) if not used >> i & 1)
            assert verdict == trail_flags(graph(g.n, left, head, g.t))[2]

    def test_flood_verdicts_on_random_graphs(self):
        for g, _ in random_graphs(28, 60, k_max=6, bmax=4):
            self.assert_flood_verdicts(g)

    @pytest.mark.parametrize("g", [make_gn(3, 3), extend(make_gn(3, 2))],
                             ids=["G3-mbar3", "extended-G3-mbar2"])
    def test_flood_verdicts_on_witness_graphs(self, g):
        # the extended graph has s = t, so some floods start at head = t
        self.assert_flood_verdicts(g)

    def test_empty_and_infeasible(self):
        assert list(signed_trails(graph(1, [], 1, 1))) == [((), 1, 1)]
        assert list(signed_trails(graph(2, [], 1, 2))) == []
        assert list(signed_trails(graph(2, [(1, 2)], 1, 1))) == []

    def test_long_path_is_not_bounded_by_recursion(self):
        assert list(signed_trails(path_graph(1200))) == [(tuple(range(1, 1201)), 1, 1)]


def drain(walk):
    """Each item with the walk's (steps, floods) after it, then the step
    count of the budget error that ended the walk (None if none did) and
    the final (steps, floods)."""
    got = []
    stop = None
    try:
        for item in walk:
            got.append((item, walk.steps, walk.floods))
    except BudgetExceededError as exc:
        stop = exc.nodes
    return got, (stop, walk.steps, walk.floods)


class TestTrailPieces:
    """String pieces build each trail's text, ",e" per edge, with the tuple
    walk's order, signs, counters after every yield and budget stops."""

    @staticmethod
    def assert_text_walk_matches(g, max_nodes):
        text = [""] + [f",{e}" for e in range(1, g.k + 1)]
        got, stop = drain(signed_trails(g, max_nodes, text))
        want, want_stop = drain(signed_trails(g, max_nodes))
        assert stop == want_stop
        assert got == [(("".join(f",{e}" for e in trail), sg, sm), steps, floods)
                       for (trail, sg, sm), steps, floods in want]

    def test_random_graphs_whole_and_stopped(self):
        rng = random.Random(33)
        for g, _ in random_graphs(28, 60, k_max=6, bmax=4):
            _, total = walk_steps(g)
            self.assert_text_walk_matches(g, total)
            for max_nodes in sorted(rng.sample(range(total), min(total, 3))):
                self.assert_text_walk_matches(g, max_nodes)

    def test_witness_graph_whole_and_stopped(self):
        g = make_gn(3, 3)
        for max_nodes in (294351, 150000, 294350, 6):
            self.assert_text_walk_matches(g, max_nodes)

    def test_empty_and_one_edge_graphs(self):
        assert list(signed_trails(graph(1, [], 1, 1), 0, [""])) == [("", 1, 1)]
        assert list(signed_trails(graph(2, [(1, 2)], 1, 2), 1, ["", ",1"])) == [(",1", 1, 1)]

    def test_wrong_length_is_a_value_error(self):
        g = make_gn(2, 1)
        for pieces in ([""] * g.k, [""] * (g.k + 2), []):
            with pytest.raises(ValueError, match="pieces"):
                signed_trails(g, pieces=pieces)


class TestSignedSum:
    def test_g2_closed_form(self):
        r = signed_sum(make_gn(2, 1))
        assert (r.S, r.T, r.trail_count) == (4, 4, 8)

    def test_g3_mbar2(self):
        assert signed_sum(make_gn(3, 2)).S == 64

    def test_budget_zero_stops_at_the_start_state(self):
        with pytest.raises(BudgetExceededError) as info:
            signed_sum(make_gn(2, 1), max_nodes=0)
        assert (info.value.nodes, info.value.limit) == (1, 0)

    def test_two_unmarked_parallel_loops(self):
        r = signed_sum(graph(1, [(1, 1), (1, 1)], 1, 1))
        assert (r.S, r.trail_count) == (0, 2)

    def test_two_marked_loops(self):
        r = signed_sum(graph(1, [(1, 1), (1, 1)], 1, 1, marked=[1, 2]))
        assert (r.S, r.T) == (2, 2)

    def test_empty_graph_convention(self):
        # the trivial graphs run no DP: (S, T, trails, nodes) and the
        # unfiltered filtered sum on the empty graph with s = t, the empty
        # graph with s != t and an unbalanced one-edge graph
        for g, report, filtered in ((graph(1, [], 1, 1), (1, 1, 1, 0), 1),
                                    (graph(2, [], 1, 2), (0, 0, 0, 0), 0),
                                    (graph(2, [(1, 2)], 1, 1), (0, 0, 0, 0), 0)):
            r = signed_sum(g, max_nodes=0)
            assert (r.S, r.T, r.trail_count, r.nodes) == report
            assert filtered_signed_sum(g, [], max_nodes=0) == filtered

    def test_matches_brute_force(self):
        for g, _ in random_graphs(23, 60, k_max=6):
            r = signed_sum(g)
            assert (r.S, r.trail_count) == brute_signed_sum(g)

    def test_matches_trail_fold(self):
        # dual route: the memoized sum equals folding per-trail signs
        for g, _ in random_graphs(24, 30, k_max=6):
            total = 0
            count = 0
            for trail in listed(g):
                sg, sm = trail_signs(g, trail)
                total += sg * sm
                count += 1
            r = signed_sum(g)
            assert (r.S, r.trail_count) == (total, count)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            signed_sum(make_gn(3, 2), max_nodes=5)

    def test_budget_boundary_is_exact(self):
        g = make_gn(3, 2)
        r = signed_sum(g)
        assert signed_sum(g, max_nodes=r.nodes).S == r.S
        with pytest.raises(BudgetExceededError):
            signed_sum(g, max_nodes=r.nodes - 1)

    def test_long_path_is_not_bounded_by_recursion(self):
        r = signed_sum(path_graph(1200))
        assert (r.S, r.T, r.trail_count) == (1, 1, 1)

    def test_report_sanity(self):
        r = signed_sum(make_gn(2, 2))
        assert r.T == abs(r.S) <= r.trail_count
        assert r.nodes > 0


def complete_digraph(n, s, t):
    """Every ordered pair of distinct vertices as one edge, less t -> s when
    s != t, so that trails run from s to t."""
    return graph(n, [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                     if u != v and (u, v) != (t, s)], s, t)


class TestTrailCount:
    """_trail_count (the BEST theorem) against lists of the trails."""

    def test_matches_brute_trails(self):
        seen = {"s = t": 0, "s != t": 0, "loops at the root": 0, "parallel non-loops": 0}
        drawn = [g for g, _ in random_graphs(41, 120, n_max=4, k_max=5)]
        rng = random.Random(42)
        for g in drawn[:40]:            # one or two loops at s, among the other edges
            edges = list(g.edges) + [(g.s, g.s)] * rng.randint(1, 2)
            rng.shuffle(edges)
            drawn.append(graph(g.n, edges, g.s, g.t))
        drawn += [g for g, _ in parallel_graphs(43, 60)]
        for g in drawn:
            count = _trail_count(g)
            assert count == len(brute_trails(g)), g
            if count:
                seen["s = t" if g.s == g.t else "s != t"] += 1
                seen["loops at the root"] += (g.s, g.s) in g.edges
                seen["parallel non-loops"] += any(
                    u != v and g.edges.count((u, v)) > 1 for u, v in g.edges)
        assert min(seen.values()) >= 10, seen

    def test_complete_digraphs(self):
        # No vertex has a single out-neighbour, so nothing contracts and the
        # determinant does all the work.  The plain walk lists the trails on
        # four vertices; on n vertices the graph has n^(n-2) ((n-2)!)^n
        # Eulerian circuits, each giving n - 1 trails from s back to s.
        for s, t in ((1, 1), (1, 2), (3, 1)):
            g = complete_digraph(4, s, t)
            assert _trail_count(g) == len(walk_steps(g)[0]) == (768 if s == t else 256)
        assert _trail_count(complete_digraph(5, 2, 2)) == 5 ** 3 * math.factorial(3) ** 5 * 4
        assert _trail_count(complete_digraph(5, 2, 4)) == 5 ** 3 * math.factorial(3) ** 5

    @pytest.mark.parametrize("g, listed", [(make_gn(3, 3), 51840),
                                           (extend(make_gn(3, 2)), 2016)])
    def test_matches_the_listing_walk(self, g, listed):
        assert _trail_count(g) == sum(1 for _ in signed_trails(g)) == listed

    def test_path_and_chain_contract_to_the_root(self):
        chain = graph(10000, [e for v in range(1, 10000) for e in ((v, v + 1), (v + 1, v))],
                      1, 1)
        for g in (path_graph(20000), chain):
            start = time.perf_counter()
            assert _trail_count(g) == 1
            assert time.perf_counter() - start < 1


def parallel_graphs(seed, count):
    """Graphs with repeated edge types, in shuffled index order.

    A random unmarked base on 1-3 vertices gains copies of its edges until
    it has 4-6 edges; a copy (u, v) of a non-loop comes with a reverse copy
    (v, u), which keeps the graph balanced.  Each type is then marked as a
    whole, left unmarked, or (rarely) split, so that most graphs repeat
    only marked types and S need not vanish.
    """
    rng = random.Random(seed)
    while count:
        base = random_feasible_graph(rng, rng.randint(1, 3), rng.randint(1, 3), bmax=0)
        copies = []
        target = rng.randint(4, 6) - base.k
        while len(copies) < target:
            u, v = rng.choice(base.edges)
            copies.append((u, v))
            if u != v and len(copies) < target:
                copies.append((v, u))
        if not all(copies.count((u, v)) == copies.count((v, u)) for u, v in copies):
            continue                    # a lone copy unbalanced the graph
        edges = list(base.edges) + copies
        rng.shuffle(edges)
        flag = {kind: rng.random() < 0.7 for kind in set(edges)}
        marked = [i for i, kind in enumerate(edges, start=1)
                  if (flag[kind] if rng.random() < 0.9 else not flag[kind])]
        count -= 1
        yield graph(base.n, edges, base.s, base.t, marked), rng


def parallel_groups(g):
    """Indices of the edges of each repeated type (endpoints and mark flag)."""
    groups: dict[tuple, list[int]] = {}
    for i, (u, v) in enumerate(g.edges, start=1):
        groups.setdefault((u, v, i in g.marked), []).append(i)
    return [ids for ids in groups.values() if len(ids) > 1]


class TestParallelQuotient:
    def test_witness_state_counts(self):
        # the ordered DP keeps per-type use counts and drops the states whose
        # weight cancels: 16,054 and 67,608 states with every state kept,
        # 79,190 and 133,574 without the quotient either
        assert signed_sum(make_gn(5, 3)).nodes == 11319
        assert signed_sum(make_gn(6, 2)).nodes == 39156

    def test_unmarked_loops_take_one_state_per_count(self):
        # a repeated unmarked type gives S = 0 with no DP; marked loops run
        # it, one state per count of loops used
        g = graph(1, [(1, 1)] * 255, 1, 1)
        r = signed_sum(g, max_nodes=0)
        assert (r.S, r.T, r.trail_count, r.nodes) == (0, 0, math.factorial(255), 0)
        g = graph(1, [(1, 1)] * 255, 1, 1, range(1, 256))
        r = signed_sum(g, max_nodes=256)
        assert (r.S, r.nodes) == (math.factorial(255), 256)
        with pytest.raises(BudgetExceededError):
            signed_sum(g, max_nodes=255)

    def test_matches_brute_trails(self):
        marked_repeats = unmarked_repeats = nonzero = 0
        for g, rng in parallel_graphs(61, 80):
            trails = brute_trails(g)
            S = sum(inversion_sign(t) * inversion_sign([e for e in t if e in g.marked])
                    for t in trails)
            r = signed_sum(g)
            assert (r.S, r.T, r.trail_count) == (S, abs(S), len(trails)), g
            groups = parallel_groups(g)
            marked_repeats += any(ids[0] in g.marked for ids in groups)
            unmarked_repeats += any(ids[0] not in g.marked for ids in groups)
            nonzero += S != 0

            # a constraint on one edge of a marked group takes that edge out
            # of the quotient and leaves the rest of its group in it
            marked_groups = [ids for ids in groups if ids[0] in g.marked]
            if marked_groups and trails:
                a, b = rng.sample(rng.choice(marked_groups), 2)
                base = rng.choice(trails)
                for c in (AtPosition(a, base.index(a) + 1), Precedes([a], [b])):
                    assert filtered_signed_sum(g, [c]) == brute_filtered_sum(g, [c]), (g, c)
        # the draw must exercise both kinds of group and nonzero sums
        assert marked_repeats >= 40 and unmarked_repeats >= 20 and nonzero >= 25

    def test_filtered_sums_quotient_the_unnamed_edges(self):
        # each constraint names one edge a of a group, or a and an edge b
        # outside it, so the rest of the group stays in the quotient
        cases = nonzero = cancelled = 0
        for g, rng in parallel_graphs(62, 80):
            trails = brute_trails(g)
            for ids in parallel_groups(g):
                a = rng.choice(ids)
                p = rng.choice(trails).index(a) + 1 if trails else rng.randint(1, g.k)
                cs = [(AtPosition(a, p), {a}), (Subtrail([a]), {a})]
                others = [e for e in range(1, g.k + 1) if e not in ids]
                if others:
                    b = rng.choice(others)
                    cs += [(c, {a, b}) for c in (Subtrail([a, b]), Precedes([a], [b]),
                                                 Precedes([b], [a]))]
                for c, named in cs:
                    expected = brute_filtered_sum(g, [c])
                    assert filtered_signed_sum(g, [c]) == expected, (g, c)
                    repeat = any(len(set(js) - named) > 1 for js in parallel_groups(g)
                                 if js[0] not in g.marked)
                    assert not (repeat and expected), (g, c)
                    cases += 1
                    nonzero += expected != 0
                    cancelled += repeat
        # the draw must exercise nonzero sums and unmarked repeats the
        # quotient cancels
        assert (cases, nonzero, cancelled) == (432, 223, 148)

    def test_filtered_budget_counts_quotiented_states(self):
        g = make_gn(3, 3)
        assert signed_sum(g).nodes == 376
        for cs, states, S in (([], 376, 1440), ([AtPosition(7, 3)], 185, 576)):
            assert filtered_signed_sum(g, cs, max_nodes=states) == S
            with pytest.raises(BudgetExceededError):
                filtered_signed_sum(g, cs, max_nodes=states - 1)


class TestClassSums:
    """class_sums: S of every repeat-free class at root pairs (1, t) from one DP."""

    @pytest.mark.parametrize("n, k, bmax", [(2, 5, 2), (2, 7, 3), (3, 7, 2), (4, 6, 2)])
    def test_matches_one_sum_per_class(self, n, k, bmax):
        # every repeat-free record at (1, 1) and (1, 2), the heads of
        # root_orbits: the DP's S is the class's own trail DP's, sign included
        sums = class_sums(n, k, bmax)
        assert set(sums.records) == set(range(1, min(n, 2) + 1))
        listed = enumerate_marked_graphs(n, k, bmax)
        checked = 0
        for t in sums.records:
            expected = {}
            for record in listed:
                if record[:2] != (1, t):
                    continue
                g = class_graph(n, record)
                if not repeats_unmarked_type(g):
                    checked += 1
                    S = signed_sum(g).S
                    if S:
                        expected[record] = S
            assert sums.records[t] == expected
        assert checked > 0

    @pytest.mark.parametrize("n, k, bmax", [(1, 4, 4), (2, 4, 2), (2, 5, 2)])
    def test_matches_brute_force(self, n, k, bmax):
        # against the permutation oracle on the brute-force stream capped at
        # one edge per unmarked type
        sums = class_sums(n, k, bmax)
        assert set(sums.records) == set(range(1, min(n, 2) + 1))
        for t in sums.records:
            expected = {}
            for g in brute_marked_graphs(n, k, bmax, [(1, t)], cap=1):
                S, _ = brute_signed_sum(g)
                if S:
                    expected[g] = S
            assert {class_graph(n, record): S
                    for record, S in sums.records[t].items()} == expected

    def test_budget_boundary_is_exact(self):
        sums = class_sums(3, 6, 2, max_nodes=2406)
        assert (sums.nodes, sums.largest_layer) == (2406, 616)
        assert sums == class_sums(3, 6, 2)
        with pytest.raises(BudgetExceededError,
                           match="^budget exceeded: 2406 states or steps, limit 2405$"):
            class_sums(3, 6, 2, max_nodes=2405)

    @pytest.mark.parametrize("n, k, bmax", [(1, 2, 0), (2, 9, 0)])
    def test_too_few_edge_types_run_no_dp(self, n, k, bmax):
        # with more edges than unmarked types and marks together, every class
        # repeats an unmarked type
        sums = class_sums(n, k, bmax, max_nodes=0)
        assert (sums.nodes, sums.largest_layer) == (0, 0)
        assert not any(sums.records.values())


class TestFilteredSums:
    def test_empty_filter_equals_full_sum(self):
        for g, _ in random_graphs(25, 20, k_max=5):
            assert filtered_signed_sum(g, []) == signed_sum(g).S

    def test_precedes_partition_on_g2(self):
        g = make_gn(2, 1)
        both = filtered_signed_sum(g, [Subtrail([1]), Subtrail([4])])
        first = filtered_signed_sum(g, [Precedes([1], [4])])
        second = filtered_signed_sum(g, [Precedes([4], [1])])
        assert both == first + second == signed_sum(g).S == 4

    def test_parallel_odd_runs_cancel(self):
        # two parallel unmarked edges occur in every trail: the swap pairing
        # cancels everything
        g = graph(2, [(1, 2), (2, 1), (1, 2)], 1, 2)
        assert filtered_signed_sum(g, [Subtrail([1]), Subtrail([3])]) == 0
        g2 = graph(2, [(1, 2), (2, 1), (1, 2)], 1, 2, marked=[2])
        assert signed_sum(g2).S == 0

    def test_at_position(self):
        g = graph(1, [(1, 1), (1, 1)], 1, 1, marked=[1])
        assert filtered_signed_sum(g, [AtPosition(1, 1)]) == 1
        assert filtered_signed_sum(g, [AtPosition(1, 2)]) == -1

    def test_subtrail_requires_adjacency(self):
        g = graph(1, [(1, 1), (1, 1), (1, 1)], 1, 1)
        # edges 1,3 adjacent in exactly two of six trails: (1,3,2) and (2,1,3)
        vals = [t for t in listed(g) if Subtrail([1, 3]).satisfied(t)]
        assert vals == [(1, 3, 2), (2, 1, 3)]

    def test_constraint_validation(self):
        g = make_gn(2, 1)
        with pytest.raises(ValueError):
            filtered_signed_sum(g, [AtPosition(1, 9)])
        with pytest.raises(ValueError):
            filtered_signed_sum(g, [Subtrail([9])])
        with pytest.raises(ValueError):
            Subtrail([])
        with pytest.raises(ValueError):
            Subtrail([1, 1])
        with pytest.raises(ValueError):
            Subtrail([0, 1])
        with pytest.raises(ValueError):
            Precedes([1], [-1])
        with pytest.raises(TypeError):
            filtered_signed_sum(g, ["subtrail:1"])

    def test_subtrail_rejects_non_integers(self):
        # int() would make it Subtrail((1, 2))
        with pytest.raises(TypeError):
            Subtrail([1.7, 2.9])

    def test_precedes_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Precedes(["1"], [2])

    def test_at_position_rejects_non_integers(self):
        # no layer has position 1.5, so the constraint would be dropped and
        # the unfiltered 4 returned
        with pytest.raises(TypeError):
            filtered_signed_sum(make_gn(2, 1), [AtPosition(1, 1.5)])
        with pytest.raises(TypeError):
            AtPosition(1.0, 1)

    def test_at_position_past_the_trail_is_not_satisfied(self):
        # raised IndexError; a run that does not occur is unsatisfied too
        assert AtPosition(1, 5).satisfied((1, 2)) is False
        assert AtPosition(2, 2).satisfied((1, 2)) is True

    def test_at_position_rejects_bools(self):
        with pytest.raises(TypeError):
            AtPosition(True, 1)

    @pytest.mark.parametrize("edge, position", [(1, 0), (0, 1), (-1, 2)])
    def test_at_position_rejects_values_below_one(self, edge, position):
        with pytest.raises(ValueError):
            AtPosition(edge, position)

    @pytest.mark.parametrize("seq, run, found", [((1, 2, 3), (1, 3), False),
                                                 ((1, 2, 3), (2, 1), False),
                                                 ((1, 2, 3), (4,), False),
                                                 ((1, 2, 3), (2, 3), True)])
    def test_subtrail_needs_the_whole_run(self, seq, run, found):
        # a run whose first edge occurs but whose rest does not follow it
        assert Subtrail(run).satisfied(seq) is found

    def test_subtrail_rejects_bools(self):
        with pytest.raises(TypeError):
            Subtrail([True])

    def test_random_partition_additivity(self):
        for g, rng in random_graphs(26, 30, k_max=6):
            trails = listed(g)
            base = rng.choice(trails)
            i = rng.randrange(len(base))
            j = rng.randint(i + 1, len(base))
            c = Subtrail(base[i:j])
            inside = filtered_signed_sum(g, [c])
            outside = sum(sg * sm for trail in trails
                          for sg, sm in [trail_signs(g, trail)]
                          if not c.satisfied(trail))
            assert inside + outside == signed_sum(g).S


def random_constraints(rng, g, base):
    """One to three constraints, drawn so that contradictions come up often:
    two AtPosition on one slot, overlapping Subtrail runs, and Precedes in
    both directions.  Runs are mostly cut from the trail base."""
    k = g.k

    def run():
        if rng.random() < 0.7:
            i = rng.randrange(k)
            return base[i:rng.randint(i + 1, min(k, i + 3))]
        return tuple(rng.sample(range(1, k + 1), rng.randint(1, min(k, 3))))

    def at(p):
        return AtPosition(base[p - 1] if rng.random() < 0.5 else rng.randint(1, k), p)

    want = rng.randint(1, 3)
    out = []
    while len(out) < want:
        kind = rng.choice(("at", "subtrail", "precedes")
                          + (("same-slot", "overlap", "both-ways") if want - len(out) >= 2
                             else ()))
        if kind == "at":
            out.append(at(rng.randint(1, k)))
        elif kind == "subtrail":
            out.append(Subtrail(run()))
        elif kind == "precedes":
            out.append(Precedes(run(), run()))
        elif kind == "same-slot":
            p = rng.randint(1, k)
            out += [at(p), at(p)]
        elif kind == "overlap" and k >= 3:
            i = rng.randrange(k - 2)
            if rng.random() < 0.5:
                out += [Subtrail(base[i:i + 2]), Subtrail(base[i + 1:i + 3])]
            else:
                x, y, z = rng.sample(range(1, k + 1), 3)
                out += [Subtrail((x, y)), Subtrail((x, z))]
        elif kind == "both-ways":
            first, second = run(), run()
            out += [Precedes(first, second), Precedes(second, first)]
    return out


class TestFilteredOracle:
    def test_matches_brute_filtered_sum(self):
        nonzero = 0
        contradictory = 0
        for seed in (41, 42, 43):
            for g, rng in random_graphs(seed, 150, k_max=6):
                base = rng.choice(brute_trails(g))
                cs = random_constraints(rng, g, base)
                expected = brute_filtered_sum(g, cs)
                assert filtered_signed_sum(g, cs) == expected, (g, cs)
                nonzero += expected != 0
                ats = [c for c in cs if isinstance(c, AtPosition)]
                contradictory += len({(c.position, c.edge) for c in ats}) > len(
                    {c.position for c in ats})
        # the draw must exercise both satisfiable and contradictory sets
        assert nonzero >= 50
        assert contradictory >= 10

    def test_precedes_both_ways_is_zero(self):
        g = make_gn(2, 2)
        assert filtered_signed_sum(g, [Precedes([1], [4]), Precedes([4], [1])]) == 0
        assert filtered_signed_sum(g, [Precedes([2], [2])]) == 0
        assert brute_filtered_sum(g, [Precedes([2], [2])]) == 0

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            filtered_signed_sum(make_gn(3, 2), [AtPosition(1, 1)], max_nodes=5)


class TestSwap:
    def test_adjacent_parallel_single_edges(self):
        g = graph(1, [(1, 1), (1, 1)], 1, 1)
        trail = (1, 2)
        swapped, ps, psm = swap_parallel_subtrails(g, trail, [1], [2])
        assert swapped == (2, 1)
        assert ps == -1 and psm == 1

    def test_length_one_and_three(self):
        g = graph(2, [(1, 1), (1, 2), (2, 2), (2, 1)], 1, 1)
        trail = (1, 2, 3, 4)
        swapped, ps, psm = swap_parallel_subtrails(g, trail, [1], [2, 3, 4])
        assert ps == -1
        assert swapped == (2, 3, 4, 1)
        assert is_trail(g, swapped)

    def test_involution(self):
        g = graph(1, [(1, 1), (1, 1), (1, 1)], 1, 1, marked=[2])
        trail = (1, 2, 3)
        swapped, _, _ = swap_parallel_subtrails(g, trail, [1], [3])
        back, _, _ = swap_parallel_subtrails(g, swapped, [1], [3])
        assert back == trail

    def test_prediction_matches_recomputation(self):
        for g, rng in random_graphs(27, 40, k_max=6, k_min=2):
            for count, seq in enumerate(listed(g)):
                if count >= 15:
                    break
                sg, sm = trail_signs(g, seq)
                for i in range(len(seq)):
                    for li in (1, 2):
                        for j in range(i + li, len(seq)):
                            for lj in (1, 2):
                                if j + lj > len(seq):
                                    continue
                                q1, q2 = seq[i:i + li], seq[j:j + lj]
                                if (g.edges[q1[0] - 1][0] != g.edges[q2[0] - 1][0]
                                        or g.edges[q1[-1] - 1][1] != g.edges[q2[-1] - 1][1]):
                                    continue
                                swapped, ps, psm = swap_parallel_subtrails(g, seq, q1, q2)
                                assert is_trail(g, swapped)
                                sg2, sm2 = trail_signs(g, swapped)
                                assert sg2 == ps * sg
                                assert sm2 == psm * sm

    def test_errors(self):
        g = graph(1, [(1, 1), (1, 1), (1, 1)], 1, 1)
        trail = (1, 2, 3)
        with pytest.raises(ValueError):
            swap_parallel_subtrails(g, trail, [1, 2], [2, 3])  # overlap
        g2 = graph(2, [(1, 2), (2, 1), (1, 1)], 1, 1)
        trail2 = (1, 2, 3)
        with pytest.raises(ValueError):
            swap_parallel_subtrails(g2, trail2, [1], [2])  # not parallel
        with pytest.raises(ValueError):
            swap_parallel_subtrails(g, trail, [1, 3], [2])  # no occurrence


class TestRelabel:
    def test_identity(self):
        g = make_gn(2, 1)
        g2, sign = relabel(g, (1, 2, 3, 4, 5))
        assert g2 == g and sign == 1

    def test_unmarked_transposition_flips_s(self):
        g = make_gn(2, 1)
        g2, sign = relabel(g, (1, 2, 4, 3, 5))
        assert sign == -1
        assert signed_sum(g2).S == -4

    def test_marked_swap_counterexample(self):
        # exchanging two marked parallel loops renumbers the marked edges and
        # contributes its own sign; the relation factor stays +1 and S is
        # unchanged, while plain sgn(pi) = -1 would wrongly predict a flip
        g = graph(1, [(1, 1), (1, 1)], 1, 1, marked=[1, 2])
        g2, sign = relabel(g, (2, 1))
        assert g2 == g
        assert sign == 1
        assert signed_sum(g2).S == signed_sum(g).S == 2

    def test_law_and_t_invariance(self):
        for g, rng in random_graphs(28, 60, k_max=6):
            pi = list(range(1, g.k + 1))
            rng.shuffle(pi)
            g2, sign = relabel(g, pi)
            r1, r2 = signed_sum(g), signed_sum(g2)
            assert r2.S == sign * r1.S
            assert r2.T == r1.T

    def test_plain_sign_when_marked_order_preserved(self):
        for g, rng in random_graphs(29, 40, k_max=6):
            M = g.marked_indices()
            while True:
                pi = list(range(1, g.k + 1))
                rng.shuffle(pi)
                inv = invert_permutation(pi)
                if sigma_M(inv, M) == tuple(range(1, len(M) + 1)):
                    break
            _, sign = relabel(g, pi)
            assert sign == sgn_perm(pi)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            relabel(make_gn(2, 1), (1, 1, 2, 3, 4))

    def test_rejects_bools(self):
        with pytest.raises(TypeError):
            relabel(make_gn(2, 1), (True, 2, 3, 4, 5))


class TestStructuralSignLaws:
    def test_extension_preserves_sum(self):
        for g, _ in random_graphs(30, 40, k_max=6):
            r1, r2 = signed_sum(g), signed_sum(extend(g))
            assert (r1.S, r1.trail_count) == (r2.S, r2.trail_count)

    def test_extension_example_t4(self):
        g = make_gn(2, 1)
        assert signed_sum(extend(g)).T == signed_sum(g).T == 4

    def test_opposite_t_and_sign_factor(self):
        for g, _ in random_graphs(31, 60, k_max=6):
            r1, r2 = signed_sum(g), signed_sum(opposite(g))
            b = len(g.marked)
            factor = -1 if (g.k * (g.k - 1) // 2 + b * (b - 1) // 2) & 1 else 1
            assert r2.T == r1.T
            assert r2.S == factor * r1.S

    def test_opposite_g2(self):
        assert signed_sum(opposite(make_gn(2, 1))).T == 4


class TestSwanIdentity:
    def test_small_fixed_case(self):
        g = graph(2, [(1, 2), (2, 1), (1, 1)], 1, 1, marked=[1])
        lhs, rhs = swan_identity(g, 1)
        assert lhs == rhs == signed_sum(g).S

    def test_random_graphs(self):
        rng = random.Random(32)
        for _ in range(60):
            g = random_feasible_graph(rng, rng.choice((2, 3)), rng.randint(3, 6),
                                      bmax=3, require_nonloop=True)
            nonloops = [i for i, (u, v) in enumerate(g.edges, start=1) if u != v]
            a = rng.choice(nonloops)
            lhs, rhs = swan_identity(g, a)
            assert lhs == rhs

    def test_rejects_loop(self):
        g = graph(1, [(1, 1)], 1, 1)
        with pytest.raises(ValueError):
            swan_identity(g, 1)

    @pytest.mark.parametrize("a", [0, 6])
    def test_rejects_an_edge_out_of_range(self, a):
        with pytest.raises(ValueError):
            swan_identity(make_gn(2, 1), a)


class TestVanishingFamilies:
    def test_unmarked_two_vertex_graphs_vanish(self):
        # alternating sums of 2n integer matrix units vanish: every balanced
        # 4-edge graph on 2 vertices has T = 0 with nothing marked
        count = 0
        for record in enumerate_marked_graphs(2, 4, 0):
            count += 1
            assert signed_sum(class_graph(2, record)).T == 0
        assert count > 0

    def test_random_unmarked_big_graphs_vanish(self):
        rng = random.Random(33)
        for n in (2, 3):
            for _ in range(20):
                k = rng.randint(2 * n, 2 * n + 2)
                g = random_feasible_graph(rng, n, k, bmax=0)
                assert signed_sum(g).T == 0

    def test_parallel_unmarked_edges_vanish(self):
        rng = random.Random(34)
        found = 0
        while found < 25:
            g = random_feasible_graph(rng, rng.randint(1, 3), rng.randint(2, 6), bmax=2)
            unmarked = [(u, v) for i, (u, v) in enumerate(g.edges, start=1)
                        if i not in g.marked]
            if len(unmarked) != len(set(unmarked)):
                found += 1
                assert signed_sum(g).T == 0
                # signed_sum sets S = 0 by the law; the unreduced walk checks it
                assert sum(sg * sm for _, sg, sm in signed_trails(g)) == 0


class TestRecursion:
    def test_g4_follows_from_g3(self):
        for mbar in (1, 2):
            lhs = signed_sum(make_gn(4, mbar)).S
            rhs = (mbar + 3) * signed_sum(make_gn(3, mbar)).S
            assert lhs == rhs

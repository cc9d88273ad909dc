"""Covering-problem reductions: input types, oracles, and round trips."""

import itertools
import random

import pytest

from oracles import brute_exact_3_cover, brute_hitting_set
from proprep.core import BudgetExceededError, Objective, Rule
from proprep.hardness import (
    HittingSetInstance,
    RX3CInstance,
    gen_hs_approval,
    gen_hs_borda,
    gen_rx3c_monroe,
    gen_vc_minimax,
)
from proprep.single_peaked import check_single_troughed
from proprep.solvers import SolverBudget, solve_subset_enum

ALL_COMBOS = tuple(itertools.product(Rule, Objective))

ALL_SAME_3 = RX3CInstance(3, ((0, 1, 2), (0, 1, 2), (0, 1, 2)))
DISJOINT_6 = RX3CInstance(6, ((0, 1, 2),) * 3 + ((3, 4, 5),) * 3)
CYCLIC_6 = RX3CInstance(
    6, ((0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 4), (1, 4, 5), (0, 2, 5))
)


def random_hitting_set(rng):
    universe = rng.randint(1, 5)
    family = tuple(
        tuple(sorted(rng.sample(range(universe), rng.randint(1, universe))))
        for _ in range(rng.randint(1, 4))
    )
    return HittingSetInstance(universe, family, rng.randint(1, min(2, universe)))


class TestHittingSetInstance:
    def test_accepts_a_well_formed_family(self):
        hs = HittingSetInstance(3, ((0, 1), (1, 2)), 1)
        assert hs.universe_size == 3
        assert hs.budget == 1

    def test_rejects_an_empty_universe(self):
        message = "^universe must have at least one element$"
        with pytest.raises(ValueError, match=message):
            HittingSetInstance(0, ((0,),), 1)

    def test_rejects_an_empty_set(self):
        with pytest.raises(ValueError, match="empty"):
            HittingSetInstance(3, ((0, 1), ()), 1)

    def test_rejects_an_empty_family(self):
        with pytest.raises(ValueError, match="at least one set"):
            HittingSetInstance(3, (), 1)

    def test_rejects_elements_outside_the_universe(self):
        with pytest.raises(ValueError, match="outside the universe"):
            HittingSetInstance(2, ((0, 2),), 1)

    def test_rejects_unsorted_or_repeated_members(self):
        with pytest.raises(ValueError, match="increasing order"):
            HittingSetInstance(3, ((1, 0),), 1)
        with pytest.raises(ValueError, match="increasing order"):
            HittingSetInstance(3, ((1, 1),), 1)

    def test_rejects_a_negative_budget(self):
        with pytest.raises(ValueError, match="budget"):
            HittingSetInstance(3, ((0,),), -1)


class TestBruteHittingSet:
    def test_one_shared_element_suffices(self):
        assert brute_hitting_set(HittingSetInstance(3, ((0, 1), (1, 2)), 1))

    def test_disjoint_singletons_need_two(self):
        assert not brute_hitting_set(HittingSetInstance(2, ((0,), (1,)), 1))
        assert brute_hitting_set(HittingSetInstance(2, ((0,), (1,)), 2))

    def test_budget_zero_never_hits_a_nonempty_set(self):
        assert not brute_hitting_set(HittingSetInstance(2, ((0,),), 0))

    def test_budget_beyond_the_universe_is_harmless(self):
        assert brute_hitting_set(HittingSetInstance(2, ((0,), (1,)), 5))

    def test_large_universe_exceeds_the_search_cap(self):
        hs = HittingSetInstance(13, ((0,),), 1)
        with pytest.raises(BudgetExceededError):
            brute_hitting_set(hs)


class TestRX3CInstance:
    def test_accepts_repeated_identical_sets(self):
        assert ALL_SAME_3.num_elements // 3 == 1

    def test_accepts_the_cyclic_family(self):
        assert CYCLIC_6.num_elements // 3 == 2

    def test_rejects_element_counts_not_divisible_by_three(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            RX3CInstance(4, ((0, 1, 2), (0, 1, 3), (0, 1, 2), (2, 3, 0))[:4])

    def test_rejects_a_family_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="exactly 3 sets"):
            RX3CInstance(3, ((0, 1, 2), (0, 1, 2)))

    def test_rejects_sets_without_three_distinct_members(self):
        with pytest.raises(ValueError, match="three distinct"):
            RX3CInstance(3, ((0, 1, 2), (0, 1, 2), (0, 1, 1)))

    def test_rejects_elements_outside_the_ground_set(self):
        message = "^set 2 mentions an element outside the ground set$"
        with pytest.raises(ValueError, match=message):
            RX3CInstance(3, ((0, 1, 2), (0, 1, 2), (0, 1, 3)))

    def test_rejects_uneven_occurrence_counts(self):
        family = ((0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 3, 4), (3, 4, 5), (3, 4, 5))
        with pytest.raises(ValueError, match="element 0 occurs 4"):
            RX3CInstance(6, family)


class TestBruteExact3Cover:
    def test_identical_sets_cover_three_elements(self):
        assert brute_exact_3_cover(ALL_SAME_3)

    def test_two_disjoint_blocks_cover_six(self):
        assert brute_exact_3_cover(DISJOINT_6)

    def test_cyclic_family_has_no_exact_cover(self):
        assert not brute_exact_3_cover(CYCLIC_6)

    def test_large_ground_set_exceeds_the_search_cap(self):
        family = tuple(
            (base, base + 1, base + 2) for base in (0, 3, 6, 9) for _ in range(3)
        )
        rx3c = RX3CInstance(12, family)
        with pytest.raises(BudgetExceededError):
            brute_exact_3_cover(rx3c)


class TestApprovalReduction:
    def test_each_set_becomes_a_voter_approving_its_members(self):
        hs = HittingSetInstance(3, ((0, 1), (1, 2)), 1)
        problem = gen_hs_approval(hs, 1)
        assert problem.election.candidates == ("u1", "u2", "u3")
        assert problem.election.votes == ((0, 1, 2), (1, 2, 0))
        assert problem.matrix.rows == ((0, 0, 1), (1, 0, 0))
        assert problem.bound == 0
        assert problem.rule is Rule.MONROE and problem.objective is Objective.SUM

    def test_each_extra_seat_brings_one_dummy_per_set(self):
        hs = HittingSetInstance(3, ((0, 1), (1, 2)), 2)
        problem = gen_hs_approval(hs, 2)
        assert problem.election.n == 4
        assert problem.matrix.rows[2] == (0, 0, 0)
        assert problem.matrix.rows[3] == (0, 0, 0)
        assert problem.election.votes[2] == (0, 1, 2)

    def test_unused_elements_still_become_candidates(self):
        hs = HittingSetInstance(3, ((0,), (1,)), 1)
        problem = gen_hs_approval(hs, 1)
        assert problem.election.m == 3
        assert [row[2] for row in problem.matrix.rows] == [1, 1]

    def test_rule_and_objective_are_selectable(self):
        hs = HittingSetInstance(2, ((0,),), 1)
        problem = gen_hs_approval(hs, 1, rule=Rule.CC, objective=Objective.MINIMAX)
        assert problem.rule is Rule.CC
        assert problem.objective is Objective.MINIMAX

    def test_rejects_winner_counts_outside_the_universe(self):
        hs = HittingSetInstance(2, ((0,),), 1)
        with pytest.raises(ValueError, match="winner count"):
            gen_hs_approval(hs, 0)
        with pytest.raises(ValueError, match="winner count"):
            gen_hs_approval(hs, 3)

    def test_shared_element_wins_at_cost_zero(self):
        hs = HittingSetInstance(3, ((0, 1), (1, 2)), 1)
        solution = solve_subset_enum(gen_hs_approval(hs, 1))
        assert solution.objective_value == 0
        assert solution.assignment.winner_set == (1,)

    def test_bound_zero_matches_exhaustive_search_for_every_variant(self):
        rng = random.Random(4021)
        for _ in range(40):
            hs = random_hitting_set(rng)
            expected = brute_hitting_set(hs)
            for rule, objective in ALL_COMBOS:
                problem = gen_hs_approval(hs, hs.budget, rule=rule, objective=objective)
                assert (solve_subset_enum(problem).objective_value == 0) is expected


class TestBordaReduction:
    def test_frozen_shape_for_two_singletons(self):
        hs = HittingSetInstance(2, ((0,), (1,)), 2)
        problem = gen_hs_borda(hs, 2)
        assert problem.election.m == 2 + 4 * 8
        assert problem.election.n == 4
        assert problem.bound == 8
        minimax = gen_hs_borda(hs, 2, objective=Objective.MINIMAX)
        assert minimax.bound == 1

    def test_set_voters_rank_their_own_blockers_after_their_members(self):
        hs = HittingSetInstance(2, ((0,), (1,)), 2)
        problem = gen_hs_borda(hs, 2)
        votes = problem.election.votes
        assert votes[0] == (0, *range(2, 10), 1, *range(10, 34))
        assert votes[1] == (1, *range(10, 18), 0, *range(2, 10), *range(18, 34))

    def test_dummies_accept_every_element_before_their_blockers(self):
        hs = HittingSetInstance(2, ((0,), (1,)), 2)
        problem = gen_hs_borda(hs, 2)
        assert problem.election.votes[2] == (
            0, 1, *range(18, 26), *range(2, 18), *range(26, 34)
        )
        assert problem.election.votes[3] == (0, 1, *range(26, 34), *range(2, 26))

    def test_size_caps_guard_the_blocker_blowup(self):
        wide = HittingSetInstance(5, ((0,),), 1)
        with pytest.raises(BudgetExceededError):
            gen_hs_borda(wide, 1)
        deep = HittingSetInstance(4, tuple((e,) for e in range(4)) + ((0, 1),), 1)
        with pytest.raises(BudgetExceededError):
            gen_hs_borda(deep, 1)

    def test_rejects_winner_counts_outside_the_universe(self):
        hs = HittingSetInstance(2, ((0,),), 1)
        with pytest.raises(ValueError, match="winner count"):
            gen_hs_borda(hs, 3)

    def test_bounds_match_exhaustive_search_for_every_variant(self):
        cases = (
            HittingSetInstance(2, ((0,), (1,)), 2),
            HittingSetInstance(2, ((0,), (1,)), 1),
            HittingSetInstance(2, ((0, 1), (1,)), 1),
        )
        roomy = SolverBudget(max_subset_candidates=40)
        for hs in cases:
            expected = brute_hitting_set(hs)
            for rule, objective in ALL_COMBOS:
                problem = gen_hs_borda(hs, hs.budget, rule=rule, objective=objective)
                solution = solve_subset_enum(problem, roomy)
                assert (solution.objective_value <= problem.bound) is expected


class TestVertexCoverReduction:
    TRIANGLE = ((0, 1), (0, 2), (1, 2))

    def test_bound_one_ranks_endpoints_then_the_rest_by_index(self):
        problem = gen_vc_minimax(self.TRIANGLE, 2, 1)
        assert problem.election.candidates == ("x1", "x2", "x3")
        assert problem.election.votes == ((0, 1, 2), (0, 2, 1), (1, 2, 0))
        assert problem.objective is Objective.MINIMAX
        assert problem.bound == 1

    def test_larger_bounds_add_private_padding_candidates(self):
        problem = gen_vc_minimax(self.TRIANGLE, 2, 2)
        assert problem.election.m == 6
        assert problem.election.votes[0] == (3, 0, 1, 2, 4, 5)
        assert problem.matrix.rows[0] == (1, 2, 3, 0, 4, 5)

    def test_padding_keeps_endpoints_just_inside_the_bound(self):
        problem = gen_vc_minimax(self.TRIANGLE, 2, 3)
        row = problem.matrix.rows[1]
        assert row[0] == 2 and row[2] == 3
        assert all(row[pad] > 3 for pad in (3, 4, 7, 8))

    def test_rejects_malformed_edges(self):
        with pytest.raises(ValueError, match="two distinct"):
            gen_vc_minimax(((0, 1, 2),), 1, 1)
        with pytest.raises(ValueError, match="two distinct"):
            gen_vc_minimax(((1, 0),), 1, 1)
        with pytest.raises(ValueError, match="at least one edge"):
            gen_vc_minimax((), 1, 1)

    def test_rejects_vertices_used_more_than_three_times(self):
        star = ((0, 1), (0, 2), (0, 3), (0, 4))
        with pytest.raises(ValueError, match="vertex 0"):
            gen_vc_minimax(star, 1, 1)

    def test_rejects_bounds_below_one(self):
        with pytest.raises(ValueError, match="bound"):
            gen_vc_minimax(((0, 1),), 1, 0)

    def test_two_vertices_cover_the_triangle_but_one_cannot(self):
        cover = solve_subset_enum(gen_vc_minimax(self.TRIANGLE, 2, 1))
        assert cover.objective_value <= 1
        alone = solve_subset_enum(gen_vc_minimax(self.TRIANGLE, 1, 1))
        assert alone.objective_value > 1

    def test_bound_decisions_match_exhaustive_search(self):
        graphs = (
            ((0, 1),),
            ((0, 1), (1, 2)),
            ((0, 1), (2, 3)),
            self.TRIANGLE,
            ((0, 1), (1, 2), (2, 3), (0, 3)),
        )
        for edges in graphs:
            num_vertices = max(v for edge in edges for v in edge) + 1
            for k in (1, 2):
                if k > min(num_vertices, len(edges)):
                    continue
                expected = brute_hitting_set(
                    HittingSetInstance(num_vertices, edges, k)
                )
                for bound in (1, 2):
                    for rule in (Rule.CC, Rule.MONROE):
                        problem = gen_vc_minimax(edges, k, bound, rule=rule)
                        solution = solve_subset_enum(problem)
                        assert (solution.objective_value <= bound) is expected


class TestExactCoverReduction:
    def test_frozen_shape_for_three_identical_sets(self):
        problem, axis = gen_rx3c_monroe(ALL_SAME_3)
        assert problem.election.candidates == ("s1", "s2", "s3", "e1", "e2", "e3")
        assert problem.election.n == 12
        assert problem.k == 4
        assert problem.bound == 18
        assert axis == (0, 1, 2, 3, 4, 5)

    def test_frozen_occurrence_and_fan_rows(self):
        problem, _ = gen_rx3c_monroe(ALL_SAME_3)
        rows = problem.matrix.rows
        assert rows[0] == (0, 1, 1, 1, 19, 19)
        assert rows[6] == (0, 1, 1, 3, 4, 5)
        assert rows[9] == (19, 19, 19, 0, 19, 19)
        assert problem.election.votes[9] == (3, 0, 1, 2, 4, 5)

    def test_generated_tables_are_single_troughed_on_the_axis(self):
        for rx3c in (ALL_SAME_3, DISJOINT_6, CYCLIC_6):
            problem, axis = gen_rx3c_monroe(rx3c)
            assert check_single_troughed(problem.matrix, axis)

    def test_element_candidates_favor_their_own_occurrence_voters(self):
        for rx3c in (ALL_SAME_3, CYCLIC_6):
            problem, _ = gen_rx3c_monroe(rx3c)
            n = rx3c.num_elements
            num_sets = len(rx3c.sets)
            rows = problem.matrix.rows
            for e in range(n):
                column = num_sets + e
                owners = {3 * e, 3 * e + 1, 3 * e + 2, 3 * n + e}
                own = rows[3 * e][column]
                assert all(rows[3 * e + x][column] == own for x in range(3))
                for voter in range(len(rows)):
                    if voter not in owners:
                        assert rows[voter][column] > own

    def test_known_cover_reaches_the_bound_exactly(self):
        problem, _ = gen_rx3c_monroe(ALL_SAME_3)
        solution = solve_subset_enum(problem)
        assert solution.objective_value == 18
        assert solution.assignment.winner_set == (0, 3, 4, 5)

    def test_cover_decision_matches_the_committee_optimum(self):
        for rx3c in (ALL_SAME_3, DISJOINT_6, CYCLIC_6):
            expected = brute_exact_3_cover(rx3c)
            problem, _ = gen_rx3c_monroe(rx3c)
            solution = solve_subset_enum(problem)
            assert (solution.objective_value <= problem.bound) is expected
            if expected:
                assert solution.objective_value == problem.bound

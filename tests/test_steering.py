"""Tests for the computational-steering workflow (repro.core.steering)."""

import numpy as np
import pytest

from repro.core import (
    BPConfig,
    SteeringSession,
    forbid_pairs,
    pin_pairs,
)
from repro.core.problem import NetworkAlignmentProblem
from repro.errors import ConfigurationError, ValidationError
from repro.generators import powerlaw_alignment_instance
from repro.graph import Graph
from repro.sparse.bipartite import BipartiteGraph


@pytest.fixture()
def instance():
    return powerlaw_alignment_instance(n=50, expected_degree=4, seed=17)


def _diagonal_problem():
    """3×3 instance whose candidates are (0,0), (1,1), (2,2)."""
    g = Graph.from_edges(3, [0, 1], [1, 2])
    ell = BipartiteGraph.from_edges(3, 3, [0, 1, 2], [0, 1, 2], 1.0)
    return NetworkAlignmentProblem(g, g, ell)


# Each of these pairs has the key a * n_b + b of the real candidate (1, 1).
ALIASING_PAIRS = [(0, 4), (2, -2)]


class TestForbid:
    def test_removes_edges(self, instance):
        p = instance.problem
        pair = (int(p.ell.edge_a[0]), int(p.ell.edge_b[0]))
        q = forbid_pairs(p, [pair])
        assert q.n_edges_l == p.n_edges_l - 1
        assert q.ell.lookup_edges([pair[0]], [pair[1]])[0] == -1

    def test_unknown_pair_rejected(self, instance):
        p = instance.problem
        # Find a non-edge.
        for b in range(p.ell.n_b):
            if p.ell.lookup_edges([0], [b])[0] == -1:
                with pytest.raises(ValidationError):
                    forbid_pairs(p, [(0, b)])
                return
        pytest.skip("vertex 0 is fully connected")

    def test_empty_is_noop(self, instance):
        assert forbid_pairs(instance.problem, []) is instance.problem

    @pytest.mark.parametrize("pair", ALIASING_PAIRS)
    def test_out_of_range_pair_rejected(self, pair):
        with pytest.raises(ValidationError):
            forbid_pairs(_diagonal_problem(), [pair])

    def test_solution_avoids_forbidden(self, instance):
        from repro.core import belief_propagation_align

        p = instance.problem
        base = belief_propagation_align(p, BPConfig(n_iter=15))
        a = int(np.flatnonzero(base.matching.mate_a >= 0)[0])
        b = int(base.matching.mate_a[a])
        q = forbid_pairs(p, [(a, b)])
        res = belief_propagation_align(q, BPConfig(n_iter=15))
        assert res.matching.mate_a[a] != b


class TestPin:
    def test_pin_forces_pair(self, instance):
        from repro.core import belief_propagation_align

        p = instance.problem
        # Pin vertex 3 to its identity partner.
        q = pin_pairs(p, [(3, 3)])
        res = belief_propagation_align(q, BPConfig(n_iter=15))
        assert res.matching.mate_a[3] == 3

    def test_pin_removes_competitors(self, instance):
        p = instance.problem
        q = pin_pairs(p, [(3, 3)])
        assert len(q.ell.edges_of_a(3)) == 1
        assert len(q.ell.edges_of_b(3)) == 1

    def test_pin_keeps_other_vertices(self, instance):
        p = instance.problem
        q = pin_pairs(p, [(3, 3)])
        # Vertices not involved keep their candidates.
        untouched = [
            a for a in range(p.ell.n_a)
            if a != 3 and 3 not in p.ell.edge_b[p.ell.edges_of_a(a)]
        ]
        a = untouched[0]
        assert len(q.ell.edges_of_a(a)) == len(p.ell.edges_of_a(a))

    def test_pin_unknown_pair_rejected(self, instance):
        p = instance.problem
        for b in range(p.ell.n_b):
            if p.ell.lookup_edges([0], [b])[0] == -1:
                with pytest.raises(ValidationError):
                    pin_pairs(p, [(0, b)])
                return

    @pytest.mark.parametrize("pair", ALIASING_PAIRS)
    def test_pin_out_of_range_pair_rejected(self, pair):
        with pytest.raises(ValidationError):
            pin_pairs(_diagonal_problem(), [pair])

    def test_pin_conflicting_pairs_rejected(self, instance):
        p = instance.problem
        # Find an A vertex with two candidates: pinning both must fail.
        degs = p.ell.degrees_a()
        a = int(np.flatnonzero(degs >= 2)[0])
        bs = p.ell.edge_b[p.ell.edges_of_a(a)][:2]
        with pytest.raises(ConfigurationError):
            pin_pairs(p, [(a, int(bs[0])), (a, int(bs[1]))])


class TestSession:
    def test_solve_and_history(self, instance):
        session = SteeringSession(
            instance.problem, method="bp",
            config=BPConfig(n_iter=10),
        )
        r1 = session.solve()
        assert session.latest is r1
        session.forbid(
            [(int(np.flatnonzero(r1.matching.mate_a >= 0)[0]),
              int(r1.matching.mate_a[np.flatnonzero(r1.matching.mate_a >= 0)[0]]))]
        )
        r2 = session.solve()
        assert len(session.history) == 2
        assert len(session.forbidden) == 1

    def test_latest_before_solve(self, instance):
        session = SteeringSession(instance.problem)
        with pytest.raises(ConfigurationError):
            _ = session.latest

    def test_invalid_method(self, instance):
        with pytest.raises(ConfigurationError):
            SteeringSession(instance.problem, method="simplex")

    def test_mr_session(self, instance):
        from repro.core import KlauConfig

        session = SteeringSession(
            instance.problem, method="mr",
            config=KlauConfig(n_iter=8, matcher="approx"),
        )
        res = session.solve()
        assert res.objective > 0

    def test_disagreements_worklist(self, instance):
        session = SteeringSession(
            instance.problem, config=BPConfig(n_iter=15)
        )
        session.solve()
        ref = instance.true_mate_a
        triples = session.disagreements(ref)
        mate = session.latest.matching.mate_a
        assert len(triples) == int((mate != ref).sum())
        for a, got, want in triples:
            assert mate[a] == got and ref[a] == want

    def test_steering_toward_reference(self, instance):
        """Pinning reference pairs never lowers recovered correctness."""
        session = SteeringSession(
            instance.problem, config=BPConfig(n_iter=20)
        )
        session.solve()
        ref = instance.true_mate_a
        before = float((session.latest.matching.mate_a == ref).mean())
        wrong = session.disagreements(ref)
        if wrong:
            a = wrong[0][0]
            if instance.problem.ell.lookup_edges([a], [ref[a]])[0] >= 0:
                session.pin([(a, int(ref[a]))])
                session.solve()
                after = float(
                    (session.latest.matching.mate_a == ref).mean()
                )
                assert after >= before - 0.05

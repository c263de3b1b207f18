"""Cluster substrate: topology, device model, events, collectives, p2p."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import (
    SUMMIT,
    CommSample,
    ComputeKind,
    DeviceModel,
    EventLoop,
    Topology,
    broadcast_time,
    fit_calibration,
    p2p_message_time,
    pipeline_message_bytes,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
    synthetic_comm_samples,
    with_memory_budget,
)


class TestTopology:
    def test_node_assignment(self):
        topo = Topology(24)
        assert topo.n_nodes == 4
        assert topo.node_of(0) == 0 and topo.node_of(5) == 0 and topo.node_of(6) == 1

    def test_link_classes(self):
        topo = Topology(12)
        assert topo.link(0, 5).name == "nvlink"
        assert topo.link(0, 6).name == "infiniband"

    def test_nvlink_faster(self):
        topo = Topology(12)
        nbytes = 10 * 1024**2
        assert topo.p2p_time(0, 1, nbytes) < topo.p2p_time(0, 7, nbytes)

    def test_self_message_free(self):
        assert Topology(4).p2p_time(2, 2, 1000) == 0.0

    def test_rank_range_checked(self):
        with pytest.raises(IndexError):
            Topology(4).node_of(4)

    def test_group_spans_nodes(self):
        topo = Topology(12)
        assert not topo.group_spans_nodes([0, 1, 2])
        assert topo.group_spans_nodes([0, 6])

    def test_needs_one_gpu(self):
        with pytest.raises(ValueError):
            Topology(0)


class TestDeviceModel:
    def test_time_linear_in_flops(self):
        d = DeviceModel()
        assert d.time(2e12) == pytest.approx(2 * d.time(1e12))

    def test_kind_ordering(self):
        d = DeviceModel()
        f = 1e12
        assert d.time(f, ComputeKind.DENSE_GEMM) < d.time(f, ComputeKind.SPARSE_SPUTNIK)

    def test_sputnik_slowdown_applied(self):
        d = DeviceModel()
        ratio = d.time(1e12, ComputeKind.SPARSE_SPUTNIK) / d.time(1e12, ComputeKind.DENSE_GEMM)
        assert ratio == pytest.approx(SUMMIT.sputnik_compute_slowdown)

    def test_conv_batch_ramp(self):
        d = DeviceModel()
        assert d.efficiency(ComputeKind.CONV, samples_per_gpu=1) < d.efficiency(
            ComputeKind.CONV, samples_per_gpu=64
        )

    def test_memory_capacity(self):
        d = DeviceModel()
        assert d.fits(15 * 1024**3) and not d.fits(17 * 1024**3)

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            DeviceModel().time(-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            DeviceModel().time(1.0, "quantum")


class TestEventLoop:
    def test_ordering(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.run()
        assert order == ["a", "b"] and loop.now == 2.0

    def test_ties_fifo(self):
        loop = EventLoop()
        order = []
        for i in range(5):
            loop.schedule(1.0, lambda i=i: order.append(i))
        loop.run()
        assert order == [0, 1, 2, 3, 4]

    def test_cascading_events(self):
        loop = EventLoop()
        seen = []

        def fire(depth):
            seen.append(loop.now)
            if depth:
                loop.schedule(0.5, lambda: fire(depth - 1))

        loop.schedule(0.0, lambda: fire(3))
        loop.run()
        assert seen == [0.0, 0.5, 1.0, 1.5]

    def test_past_scheduling_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)

    def test_runaway_guard(self):
        loop = EventLoop()

        def again():
            loop.schedule(0.1, again)

        loop.schedule(0.0, again)
        with pytest.raises(RuntimeError):
            loop.run(max_events=100)

    def test_positional_args_keep_insertion_order_ties(self):
        loop = EventLoop()
        seen = []

        def note(*args):
            seen.append((loop.now, args))

        loop.at(1.0, note, "a", 1)
        loop.schedule(1.0, note, "b")
        loop.at(0.5, note)
        loop.schedule(1.0, note, "c", (2, 3))
        loop.at(1.0, note, "d")
        assert loop.run() == 1.0
        assert seen == [
            (0.5, ()), (1.0, ("a", 1)), (1.0, ("b",)), (1.0, ("c", (2, 3))), (1.0, ("d",)),
        ]
        assert loop.events_processed == 5

    def test_positional_args_count_events_on_budget_overflow(self):
        loop = EventLoop()
        depths = []

        def again(depth):
            depths.append(depth)
            loop.schedule(0.0, again, depth + 1)

        loop.at(0.0, again, 0)
        with pytest.raises(RuntimeError, match="after processing 11 events"):
            loop.run(max_events=10)
        assert depths == list(range(11))
        assert loop.events_processed == 11


class TestCollectives:
    def test_allreduce_cost_formula(self):
        """Invariant 5: ring all-reduce = 2(G-1)α + 2(G-1)/G · n/β."""
        n, g = 10**8, 16
        expected = 2 * (g - 1) * SUMMIT.coll_alpha + (2 * (g - 1) / g) * n / SUMMIT.coll_beta
        assert ring_allreduce_time(n, g) == pytest.approx(expected)

    def test_single_rank_free(self):
        assert ring_allreduce_time(10**6, 1) == 0.0

    def test_zero_bytes_free(self):
        assert ring_allreduce_time(0, 16) == 0.0

    def test_allreduce_increases_with_bytes_and_ranks(self):
        assert ring_allreduce_time(2 * 10**8, 16) > ring_allreduce_time(10**8, 16)
        assert ring_allreduce_time(10**8, 32) > ring_allreduce_time(10**8, 16)

    def test_reduce_scatter_half_of_allreduce_bandwidth_term(self):
        n, g = 10**9, 8
        ar = ring_allreduce_time(n, g) - 2 * (g - 1) * SUMMIT.coll_alpha
        rs = ring_reduce_scatter_time(n, g) - (g - 1) * SUMMIT.coll_alpha
        assert ar == pytest.approx(2 * rs)

    def test_allgather_equals_reduce_scatter(self):
        assert ring_allgather_time(10**7, 8) == ring_reduce_scatter_time(10**7, 8)

    def test_intra_node_group_uses_nvlink(self):
        topo = Topology(12)
        t_intra = ring_allreduce_time(10**8, 4, topology=topo, ranks=[0, 1, 2, 3])
        t_inter = ring_allreduce_time(10**8, 4, topology=topo, ranks=[0, 6, 7, 8])
        assert t_intra < t_inter

    def test_broadcast(self):
        assert broadcast_time(10**6, 4) > 0
        assert broadcast_time(10**6, 1) == 0.0

    def test_broadcast_intra_node_uses_nvlink(self):
        """Regression: broadcast was topology-blind, always pricing
        intra-node groups at the cross-node coll_beta."""
        topo = Topology(12)
        t_intra = broadcast_time(10**8, 4, topology=topo, ranks=[0, 1, 2, 3])
        t_inter = broadcast_time(10**8, 4, topology=topo, ranks=[0, 6, 7, 8])
        assert t_intra < t_inter
        # cross-node groups match the topology-free default
        assert t_inter == pytest.approx(broadcast_time(10**8, 4))

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            ring_allreduce_time(100, 0)


class TestP2P:
    def test_alpha_beta(self):
        t = p2p_message_time(10**7)
        assert t == pytest.approx(SUMMIT.p2p_alpha + 10**7 / SUMMIT.p2p_beta)

    def test_zero_bytes_free(self):
        assert p2p_message_time(0) == 0.0

    def test_with_topology_link_selection(self):
        topo = Topology(12)
        assert p2p_message_time(10**6, 0, 1, topology=topo) < p2p_message_time(
            10**6, 0, 11, topology=topo
        )

    def test_pipeline_message_bytes(self):
        # mbs=2, 2048x2560 activation, fp16
        assert pipeline_message_bytes(2, 2048 * 2560) == 2 * 2048 * 2560 * 2


class TestCalibrationValidation:
    """NaN/inf/non-positive constants must fail loudly at construction.

    The calibration is the machine's cache identity: a silently accepted
    NaN poisons every downstream memoisation key and every batch time.
    Follows the ScenarioSet weight-hardening pattern (test_api.py).
    """

    def test_default_is_valid(self):
        assert dataclasses.replace(SUMMIT) == SUMMIT

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.5])
    def test_physical_constant_rejected(self, bad):
        with pytest.raises(ValueError, match="p2p_beta"):
            dataclasses.replace(SUMMIT, p2p_beta=bad)

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_fraction_bounds(self, bad):
        with pytest.raises(ValueError, match="dp_overlap_fraction"):
            dataclasses.replace(SUMMIT, dp_overlap_fraction=bad)

    def test_fractions_may_be_zero(self):
        cal = dataclasses.replace(SUMMIT, dp_overlap_fraction=0.0, other_fraction=0.0)
        assert cal.dp_overlap_fraction == 0.0

    def test_non_numbers_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            dataclasses.replace(SUMMIT, coll_alpha="fast")
        with pytest.raises(ValueError, match="must be a number"):
            dataclasses.replace(SUMMIT, coll_alpha=True)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -16.0, "16", None])
    def test_memory_budget_rejected(self, bad):
        with pytest.raises(ValueError, match="budget_gb"):
            with_memory_budget(bad)

    def test_memory_budget_accepts_positive(self):
        assert with_memory_budget(32.0).gpu_memory_bytes == 32 * 1024**3
        # cached: identical instance for identical budget (stable cache keys)
        assert with_memory_budget(32.0) is with_memory_budget(32.0)


class TestCalibrationFit:
    def test_comm_sample_validation(self):
        with pytest.raises(ValueError, match="unknown channel"):
            CommSample("broadcast", 1024, 1e-3)
        with pytest.raises(ValueError, match="nbytes"):
            CommSample("p2p", 0, 1e-3)
        with pytest.raises(ValueError, match="seconds"):
            CommSample("p2p", 1024, 0.0)
        with pytest.raises(ValueError, match="seconds"):
            CommSample("p2p", 1024, float("nan"))
        with pytest.raises(ValueError, match="group_size"):
            CommSample("collective", 1024, 1e-3, group_size=1)

    def test_fit_needs_samples(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_calibration([])
        with pytest.raises(ValueError, match="CommSample"):
            fit_calibration([(1024, 1e-3)])

    def test_fit_needs_two_distinct_sizes_per_channel(self):
        same = [CommSample("p2p", 1024, 1e-3), CommSample("p2p", 1024, 1.1e-3)]
        with pytest.raises(ValueError, match="distinct"):
            fit_calibration(same)

    def test_noiseless_fit_is_exact(self):
        fitted = fit_calibration(synthetic_comm_samples(SUMMIT, seed=7, noise=0.0))
        assert fitted.p2p_alpha == pytest.approx(SUMMIT.p2p_alpha, rel=1e-9)
        assert fitted.p2p_beta == pytest.approx(SUMMIT.p2p_beta, rel=1e-9)
        assert fitted.coll_alpha == pytest.approx(SUMMIT.coll_alpha, rel=1e-9)
        assert fitted.coll_beta == pytest.approx(SUMMIT.coll_beta, rel=1e-9)

    def test_noisy_fit_recovers_within_noise(self):
        fitted = fit_calibration(synthetic_comm_samples(SUMMIT, seed=0, noise=0.02))
        for name in ("p2p_alpha", "p2p_beta", "coll_alpha", "coll_beta"):
            rel = abs(getattr(fitted, name) / getattr(SUMMIT, name) - 1.0)
            assert rel < 0.05, (name, rel)

    def test_channel_without_samples_keeps_base(self):
        only_p2p = [s for s in synthetic_comm_samples(SUMMIT, seed=1) if s.channel == "p2p"]
        fitted = fit_calibration(only_p2p)
        assert fitted.coll_alpha == SUMMIT.coll_alpha
        assert fitted.coll_beta == SUMMIT.coll_beta
        assert fitted.p2p_alpha != SUMMIT.p2p_alpha

    def test_inconsistent_timings_raise(self):
        # decreasing time with increasing size => negative 1/beta
        bad = [
            CommSample("p2p", 1024, 1.0),
            CommSample("p2p", 64 * 1024**2, 1e-6),
        ]
        with pytest.raises(ValueError, match="non-physical"):
            fit_calibration(bad)

    def test_deterministic_per_seed(self):
        a = fit_calibration(synthetic_comm_samples(SUMMIT, seed=5))
        b = fit_calibration(synthetic_comm_samples(SUMMIT, seed=5))
        assert a == b
        assert a != fit_calibration(synthetic_comm_samples(SUMMIT, seed=6))

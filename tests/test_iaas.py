"""Unit tests for the IaaS substrate: VMs, clusters, MPI, parameter server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.iaas.cluster import VMCluster, iaas_startup_seconds
from repro.iaas.mpi import MPICommunicator
from repro.iaas.ps import PSTimingModel, make_parameter_server
from repro.iaas.vm import INSTANCES, get_instance
from repro.simulation.commands import Get, Put, Sleep
from repro.simulation.engine import Engine, ProcessState
from repro.utils.serialization import SizedPayload

MB = 1024 * 1024


class TestVMCatalog:
    def test_known_instances(self):
        assert get_instance("t2.medium").vcpus == 2
        assert get_instance("c5.4xlarge").vcpus == 16
        assert get_instance("g3s.xlarge").gpu == "m60"
        assert get_instance("g4dn.xlarge").gpu == "t4"

    def test_table6_network_constants(self):
        assert get_instance("t2.medium").network_bps == 120 * MB
        assert get_instance("c5.large").network_bps == 225 * MB
        assert get_instance("t2.medium").network_latency_s == pytest.approx(5e-4)
        assert get_instance("c5.large").network_latency_s == pytest.approx(1.5e-4)

    def test_unknown_instance(self):
        with pytest.raises(ConfigurationError):
            get_instance("z1.mystery")

    def test_all_instances_priced(self):
        from repro.pricing.catalog import DEFAULT_CATALOG

        for name in INSTANCES:
            assert DEFAULT_CATALOG.ec2_price(name) > 0


class TestClusterStartup:
    def test_anchors_match_table6(self):
        assert iaas_startup_seconds(10) == pytest.approx(132.0)
        assert iaas_startup_seconds(50) == pytest.approx(160.0)
        assert iaas_startup_seconds(100) == pytest.approx(292.0)
        assert iaas_startup_seconds(200) == pytest.approx(606.0)

    def test_monotone(self):
        values = [iaas_startup_seconds(w) for w in (1, 10, 25, 50, 150, 200, 300)]
        assert values == sorted(values)

    def test_iaas_much_slower_than_faas_startup(self):
        from repro.faas.runtime import faas_startup_seconds

        for w in (10, 50, 100, 200):
            assert iaas_startup_seconds(w) > 10 * faas_startup_seconds(w)


class TestRingAllReduce:
    def test_formula(self):
        cluster = VMCluster.build("t2.medium", 10)
        m = 10 * MB
        expected = (2 * 10 - 2) * ((m / 10) / (120 * MB) + 5e-4)
        assert cluster.ring_allreduce_seconds(m) == pytest.approx(expected)

    def test_single_vm_free(self):
        cluster = VMCluster.build("t2.medium", 1)
        assert cluster.ring_allreduce_seconds(10 * MB) == 0.0

    def test_faster_network_is_faster(self):
        t2 = VMCluster.build("t2.medium", 10)
        c5 = VMCluster.build("c5.large", 10)
        assert c5.ring_allreduce_seconds(10 * MB) < t2.ring_allreduce_seconds(10 * MB)


class TestMPICollectives:
    def test_allreduce_through_engine(self):
        engine = Engine()
        cluster = VMCluster.build("c5.large", 3)
        comm = MPICommunicator(cluster)
        finished = {}

        def worker(rank):
            yield Sleep(float(rank))
            finished[rank] = ((yield comm.allreduce(1024)), engine.now)

        for rank in range(3):
            engine.spawn(worker(rank), f"w{rank}")
        engine.run()
        # A byte count, no values: everyone leaves together, one ring
        # AllReduce after the last arrival.
        done = 2.0 + cluster.ring_allreduce_seconds(1024)
        assert finished == {rank: (None, done) for rank in range(3)}

    def test_reset_starts_a_fresh_rendezvous(self):
        engine = Engine()
        comm = MPICommunicator(VMCluster.build("c5.large", 3))

        def worker():
            yield comm.allreduce(1024)

        cohort = []

        def restart():
            yield Sleep(1.0)  # w0 is parked in a half-full collective round
            engine.kill(stale)
            comm.reset()
            cohort.extend(engine.spawn(worker(), f"w{rank}#2") for rank in range(3))

        stale = engine.spawn(worker(), "w0")
        engine.spawn(restart(), "restart")
        engine.run()
        assert all(p.state is ProcessState.DONE for p in cohort)



class TestPSTimingModel:
    def test_table2_single_lambda_grpc(self):
        model = PSTimingModel(get_instance("c5.4xlarge"), rpc="grpc", lambda_memory_gb=3.0)
        # Paper: 1.85 s for 75 MB.
        assert model.data_transmission_s(75 * MB, 1) == pytest.approx(1.85, rel=0.15)

    def test_table2_thrift_much_slower(self):
        grpc = PSTimingModel(get_instance("c5.4xlarge"), rpc="grpc")
        thrift = PSTimingModel(get_instance("c5.4xlarge"), rpc="thrift")
        assert thrift.data_transmission_s(75 * MB, 1) > 8 * grpc.data_transmission_s(75 * MB, 1)

    def test_less_memory_is_slower(self):
        big = PSTimingModel(get_instance("c5.4xlarge"), lambda_memory_gb=3.0)
        small = PSTimingModel(get_instance("c5.4xlarge"), lambda_memory_gb=1.0)
        assert small.data_transmission_s(75 * MB, 1) > big.data_transmission_s(75 * MB, 1)

    def test_concurrency_contention(self):
        model = PSTimingModel(get_instance("c5.4xlarge"))
        assert model.data_transmission_s(75 * MB, 10) > model.data_transmission_s(75 * MB, 1)

    def test_update_scales_with_workers(self):
        model = PSTimingModel(get_instance("c5.4xlarge"))
        assert model.model_update_s(75 * MB, 10) == pytest.approx(
            10 * model.model_update_s(75 * MB, 1)
        )

    def test_grpc_update_slower_than_thrift(self):
        # Table 2's counter-intuitive right columns.
        grpc = PSTimingModel(get_instance("c5.4xlarge"), rpc="grpc")
        thrift = PSTimingModel(get_instance("c5.4xlarge"), rpc="thrift")
        assert grpc.model_update_s(75 * MB, 1) > thrift.model_update_s(75 * MB, 1)

    def test_invalid_rpc(self):
        with pytest.raises(ConfigurationError):
            PSTimingModel(get_instance("c5.4xlarge"), rpc="rest")


class TestParameterServer:
    def _make(self, lr=0.1, dims=8):
        return make_parameter_server(
            "c5.4xlarge", init_params=np.zeros(dims), logical_param_bytes=dims * 8, lr=lr
        )

    def test_gradient_push_applies_update(self):
        engine = Engine()
        ps = self._make(lr=0.5, dims=4)
        ps.available_at = 0.0

        def worker():
            yield Put(ps, "grad/0/0", SizedPayload(np.ones(4), 32))
            pulled = yield Get(ps, ps.MODEL_KEY)
            return pulled

        p = engine.spawn(worker(), "w")
        engine.run()
        np.testing.assert_allclose(p.result.value, np.full(4, -0.5))

    def test_gradient_push_stores_no_key_and_wakes_nobody(self):
        from repro.errors import DeadlockError
        from repro.simulation.commands import WaitKeyCount

        engine = Engine()
        ps = self._make(dims=4)
        ps.available_at = 0.0

        def pusher():
            yield Put(ps, "grad/0/0", SizedPayload(np.ones(4), 32))

        def key_waiter():
            yield WaitKeyCount(ps, "grad/0/0", 1, poll_interval=0.01)

        def count_waiter():
            yield WaitKeyCount(ps, "grad/", 1, poll_interval=0.01)

        engine.spawn(pusher(), "pusher")
        engine.spawn(key_waiter(), "on-key")
        engine.spawn(count_waiter(), "on-count")
        with pytest.raises(DeadlockError, match=r"2 process\(es\) blocked .*2 waiting on storage"):
            engine.run()
        assert ps.push_count == 1 and len(ps) == 0
        assert {prefix: record[0] for prefix, record in ps._watched.items()} == {
            "grad/0/0": 0, "grad/": 0}

    def test_pull_returns_copy(self):
        engine = Engine()
        ps = self._make(dims=3)
        ps.available_at = 0.0

        def worker():
            pulled = yield Get(ps, ps.MODEL_KEY)
            pulled.value[:] = 99.0
            again = yield Get(ps, ps.MODEL_KEY)
            return again

        p = engine.spawn(worker(), "w")
        engine.run()
        np.testing.assert_allclose(p.result.value, np.zeros(3))

    def test_ps_gated_by_vm_startup(self):
        ps = self._make()
        assert ps.available_at == pytest.approx(iaas_startup_seconds(1))

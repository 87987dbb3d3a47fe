"""Unit tests for the price catalog and cost meter."""

from __future__ import annotations

import math
import random
import struct
import sys
from fractions import Fraction

import pytest

from repro.errors import ConfigurationError
from repro.pricing.catalog import DEFAULT_CATALOG
from repro.pricing.meter import CostMeter, repeated_add


class TestCatalog:
    def test_paper_anchor_price(self):
        # The paper quotes cache.t3.small at $0.034/hour.
        assert DEFAULT_CATALOG.elasticache_price("cache.t3.small") == 0.034

    def test_unknown_instance_rejected(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_CATALOG.ec2_price("quantum.9000xl")

    def test_unknown_cache_node_rejected(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_CATALOG.elasticache_price("cache.z1.nano")

    def test_gpu_more_expensive_than_cpu(self):
        assert DEFAULT_CATALOG.ec2_price("g3s.xlarge") > DEFAULT_CATALOG.ec2_price(
            "t2.medium"
        )


class TestMeter:
    def test_lambda_billing_scales_with_memory_and_time(self):
        a, b = CostMeter(), CostMeter()
        a.bill_lambda(3.0, 100.0)
        b.bill_lambda(1.0, 100.0)
        assert a.total == pytest.approx(3 * b.total)

    def test_lambda_invocation_charge(self):
        m = CostMeter()
        m.bill_lambda(0.0, 0.0, invocations=1_000_000)
        assert m.total == pytest.approx(0.2)

    def test_vm_billing_by_the_hour(self):
        m = CostMeter()
        m.bill_vm("t2.medium", 3600.0, count=2)
        assert m.total == pytest.approx(2 * 0.0464)

    def test_elasticache_billing(self):
        m = CostMeter()
        m.bill_elasticache("cache.t3.small", 1800.0)
        assert m.total == pytest.approx(0.017)

    def test_negative_charge_rejected(self):
        m = CostMeter()
        with pytest.raises(ValueError):
            m.add("x", -1.0)

    @pytest.mark.parametrize("dollars", [float("nan"), float("inf")])
    def test_non_finite_charge_rejected(self, dollars):
        m = CostMeter()
        with pytest.raises(ValueError, match="invalid charge"):
            m.add("x", dollars)
        assert m.total == 0.0 and not m.dollars

    def test_negative_count_rejected_before_any_state_moves(self):
        m = CostMeter()
        with pytest.raises(ValueError, match="negative charge count"):
            m.bill_request(m.s3_request_prices()["list"], -3)
        with pytest.raises(ValueError, match="negative charge count"):
            m.bill_dynamodb_request("get", 0, count=-1)
        assert not m.dollars and not m.counters

    def test_zero_count_is_a_noop(self):
        m = CostMeter()
        m.bill_request(m.s3_request_prices()["list"], 0)
        assert m.total == 0.0 and m.counters["s3_list"] == 0

    def test_breakdown_by_component(self):
        m = CostMeter()
        m.bill_lambda(3.0, 10.0)
        m.bill_vm("t2.medium", 10.0)
        breakdown = m.breakdown()
        assert set(breakdown) == {"lambda", "ec2"}
        assert m.total == pytest.approx(sum(breakdown.values()))

    def test_dynamodb_write_unit_rounding(self):
        m = CostMeter()
        m.bill_dynamodb_request("put", 1)  # still one full write unit
        assert m.total == pytest.approx(1.25e-6)


def _naive_repeated_add(total: float, d: float, n: int) -> float:
    """The oracle: what `n` separate charges do to the accumulator."""
    for _ in range(n):
        total += d
    return total


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# Every per-request price the meter charges (S3 put/get, DynamoDB
# read/write units, multi-unit items).
_PRICES = sorted(
    {DEFAULT_CATALOG.s3_per_put, DEFAULT_CATALOG.s3_per_get}
    | {units * DEFAULT_CATALOG.dynamodb_per_write_unit for units in (1, 3, 98)}
    | {units * DEFAULT_CATALOG.dynamodb_per_read_unit for units in (1, 3, 25)}
)


class TestRepeatedAdd:
    """`repeated_add` against the per-charge loop, compared bit for bit."""

    def _check(self, total: float, d: float, n: int) -> None:
        got, want = repeated_add(total, d, n), _naive_repeated_add(total, d, n)
        assert _bits(got) == _bits(want), (total.hex(), d.hex(), n, got.hex(), want.hex())

    def test_catalog_prices_from_accumulated_totals(self):
        rng = random.Random(20210620)
        for _ in range(1500):
            total = 0.0
            for _ in range(rng.randint(0, 5)):
                total = _naive_repeated_add(total, rng.choice(_PRICES), rng.randint(1, 300))
            self._check(total, rng.choice(_PRICES), rng.randint(0, 6000))

    def test_random_magnitudes(self):
        rng = random.Random(7)
        for _ in range(6000):
            total = 10.0 ** rng.uniform(-12, 6)
            d = 10.0 ** rng.uniform(-12, 6)  # both d >> total and d << total
            self._check(total, d, rng.randint(0, 2500))

    @pytest.mark.parametrize("k", [2**52, 2**52 + 1, 2**53 - 1, 2**53 - 2])
    @pytest.mark.parametrize("exponent", [-30, 0, 10])
    def test_ties_at_both_ends_of_a_binade(self, k, exponent):
        u = 2.0**exponent
        total = k * u
        assert math.ulp(total) == u
        for m in range(9):  # odd and even multipliers
            d = (m + 0.5) * u
            for n in range(1, 34):
                self._check(total, d, n)

    @pytest.mark.parametrize("k", [2**52 + 6, 2**52 + 7])  # even and odd
    def test_absorption(self, k):
        for d_ulps in (0.25, 0.49, 0.5):
            for n in (1, 2, 3, 1000):
                self._check(float(k), d_ulps, n)
        assert repeated_add(float(k), 0.25, 10**18) == float(k)
        # A half-ulp charge moves an odd total once, then is absorbed.
        assert repeated_add(float(2**52 + 7), 0.5, 10**18) == float(2**52 + 8)

    def test_from_zero_across_binades(self):
        for d in (*_PRICES, 1.0, 0.1):
            for n in (0, 1, 2, 3, 1000, 2_000_000):  # 2e6 adds: 20+ binades
                self._check(0.0, d, n)
        assert math.log2(repeated_add(0.0, 0.1, 2_000_000) / 0.1) > 20

    def test_subnormal_charges(self):
        rng = random.Random(3)
        tiny = sys.float_info.min
        for d in (5e-324, tiny / 4, tiny * 0.75):
            for total in (0.0, 5e-324, tiny * rng.random(), tiny, tiny * 1.5):
                for n in (1, 2, 3, 33, 5000):
                    self._check(total, d, n)

    def test_one_binade_under_overflow(self):
        rng = random.Random(5)
        top = sys.float_info.max
        for _ in range(300):
            total = rng.uniform(0.25, 0.5) * top
            self._check(total, total * 10.0 ** rng.uniform(-18, -1), rng.randint(0, 2500))
        self._check(top, 1e300, 5)  # saturates at inf, like the loop
        assert repeated_add(top, top, 10**9) == math.inf

    def test_splitting_a_batch_changes_nothing(self):
        rng = random.Random(11)
        for _ in range(2000):
            total = 10.0 ** rng.uniform(-9, 3)
            d = rng.choice(_PRICES) if rng.random() < 0.5 else 10.0 ** rng.uniform(-9, 3)
            a, b = rng.randint(0, 10**7), rng.randint(0, 10**7)
            whole = repeated_add(total, d, a + b)
            assert _bits(repeated_add(repeated_add(total, d, a), d, b)) == _bits(whole)

    def test_cost_does_not_grow_with_the_count(self):
        # A loop would need months for 10**15 adds and hours for 10**12;
        # the per-test timeout is the assertion. The exact sum bounds
        # the rounded one: each add errs by at most half an ulp of the
        # final (largest) total.
        for total, d, n in ((0.0, 5e-6, 10**15), (0.37, 4e-7, 10**12)):
            got = repeated_add(total, d, n)
            exact = Fraction(total) + n * Fraction(d)
            slack = n * Fraction(math.ulp(got)) / 2
            assert exact - slack <= Fraction(got) <= exact + slack
            assert got > total

    def test_rejects_what_it_cannot_add(self):
        for total, d in ((-1.0, 1.0), (1.0, -1.0), (float("nan"), 1.0), (1.0, float("nan"))):
            with pytest.raises(ValueError):
                repeated_add(total, d, 2)


class TestServingPlatforms:
    """Satellite: the GPU-IaaS pricing profile and its cost arithmetic."""

    def test_catalog_has_gpu_iaas_rate(self):
        # g4dn.xlarge (one T4) at the on-demand $0.526/hour anchor.
        assert DEFAULT_CATALOG.ec2_price("g4dn.xlarge") == 0.526

    def test_inference_speedup_selects_gpu_family(self):
        import dataclasses

        from repro.models.zoo import get_model_info
        from repro.pricing import SERVING_PLATFORMS, inference_speedup

        compute = get_model_info("mobilenet", "cifar10").compute
        gpu = SERVING_PLATFORMS["gpu_iaas"]
        # g4dn carries a T4 -> the 27x ratio; g3s carries an M60 -> 20x.
        assert inference_speedup(gpu, compute) == compute.gpu_speedup_t4 == 27.0
        m60 = dataclasses.replace(gpu, instance="g3s.xlarge")
        assert inference_speedup(m60, compute) == compute.gpu_speedup_m60 == 20.0

    def test_inference_speedup_cpu_and_faas(self):
        from repro.models.zoo import get_model_info
        from repro.pricing import SERVING_PLATFORMS, inference_speedup

        compute = get_model_info("mobilenet", "cifar10").compute
        assert inference_speedup(SERVING_PLATFORMS["iaas"], compute) == 1.2
        assert inference_speedup(SERVING_PLATFORMS["faas"], compute) == 1.0

    def test_gpu_fallback_for_models_without_gpu_ratio(self):
        from repro.models.zoo import get_model_info
        from repro.pricing import SERVING_PLATFORMS, inference_speedup

        # LR has no calibrated GPU ratio: the GPU VM still serves at
        # least as fast as its own CPU cores.
        compute = get_model_info("lr", "higgs").compute
        speedup = inference_speedup(SERVING_PLATFORMS["gpu_iaas"], compute)
        assert speedup == SERVING_PLATFORMS["gpu_iaas"].cpu_multiplier

    def test_get_platform_overrides_and_errors(self):
        from repro.pricing import get_platform

        custom = get_platform("iaas", instance="m5.2xlarge")
        assert custom.instance == "m5.2xlarge"
        gpu = get_platform("gpu_iaas", gpu_instance="g3s.xlarge")
        assert gpu.instance == "g3s.xlarge"
        with pytest.raises(ConfigurationError):
            get_platform("bare_metal")

    def test_gpu_hour_vs_serve_cost_arithmetic(self):
        # One VM-hour of g4dn.xlarge through the meter matches the
        # catalog rate exactly — the serving tier's $/1M axis rests on
        # this arithmetic.
        m = CostMeter()
        m.bill_vm("g4dn.xlarge", 3600.0)
        assert m.total == pytest.approx(0.526)

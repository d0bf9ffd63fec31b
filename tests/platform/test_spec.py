"""Tests for WorkerSpec / PlatformSpec and the Table-1 constructor."""

import dataclasses
import math
import pickle

import pytest

from repro.platform import PlatformSpec, WorkerSpec, homogeneous_platform


class TestWorkerSpec:
    def test_compute_time_eq1(self):
        w = WorkerSpec(S=2.0, B=10.0, cLat=0.5)
        assert w.compute_time(4.0) == 0.5 + 4.0 / 2.0

    def test_comm_time_eq2(self):
        w = WorkerSpec(S=1.0, B=4.0, nLat=0.25, tLat=0.1)
        assert w.comm_time(8.0) == 0.25 + 2.0 + 0.1

    def test_link_time_excludes_tlat(self):
        w = WorkerSpec(S=1.0, B=4.0, nLat=0.25, tLat=0.1)
        assert w.link_time(8.0) == 0.25 + 2.0

    def test_infinite_bandwidth_models_prestaged_data(self):
        w = WorkerSpec(S=1.0, B=math.inf, nLat=0.2)
        assert w.link_time(1e9) == 0.2

    @pytest.mark.parametrize("field,value", [("S", 0.0), ("S", -1.0), ("B", 0.0)])
    def test_nonpositive_rates_rejected(self, field, value):
        kwargs = {"S": 1.0, "B": 1.0}
        kwargs[field] = value
        with pytest.raises(ValueError):
            WorkerSpec(**kwargs)

    @pytest.mark.parametrize("field", ["cLat", "nLat", "tLat"])
    def test_negative_latency_rejected(self, field):
        with pytest.raises(ValueError):
            WorkerSpec(S=1.0, B=1.0, **{field: -0.1})

    def test_specs_are_hashable_and_comparable(self):
        a = WorkerSpec(S=1.0, B=2.0)
        b = WorkerSpec(S=1.0, B=2.0)
        assert a == b
        assert hash(a) == hash(b)


class TestPlatformSpec:
    def test_requires_at_least_one_worker(self):
        with pytest.raises(ValueError):
            PlatformSpec([])

    def test_len_iteration_indexing(self):
        workers = [WorkerSpec(S=1.0, B=2.0), WorkerSpec(S=2.0, B=3.0)]
        p = PlatformSpec(workers)
        assert len(p) == 2 and p.N == 2
        assert list(p) == workers
        assert p[1].S == 2.0

    def test_homogeneity_detection(self):
        assert homogeneous_platform(3, S=1.0, B=5.0).is_homogeneous
        p = PlatformSpec([WorkerSpec(S=1.0, B=5.0), WorkerSpec(S=2.0, B=5.0)])
        assert not p.is_homogeneous

    def test_subset_preserves_order(self):
        p = PlatformSpec([WorkerSpec(S=float(i + 1), B=10.0) for i in range(4)])
        sub = p.subset([2, 0])
        assert [w.S for w in sub] == [3.0, 1.0]

    def test_total_compute_rate(self):
        p = PlatformSpec([WorkerSpec(S=1.0, B=9.0), WorkerSpec(S=2.5, B=9.0)])
        assert p.total_compute_rate() == 3.5

    def test_utilization_sum(self):
        p = PlatformSpec([WorkerSpec(S=1.0, B=4.0), WorkerSpec(S=2.0, B=8.0)])
        assert p.utilization_sum() == pytest.approx(0.25 + 0.25)

    def test_utilization_sum_infinite_bandwidth_is_free(self):
        p = PlatformSpec([WorkerSpec(S=1.0, B=math.inf)])
        assert p.utilization_sum() == 0.0

    def test_platform_is_hashable(self):
        p1 = homogeneous_platform(3, S=1.0, B=6.0)
        p2 = homogeneous_platform(3, S=1.0, B=6.0)
        assert p1 == p2 and hash(p1) == hash(p2)

    def test_equal_platforms_built_differently_hash_equal(self):
        listed = PlatformSpec([WorkerSpec(S=1.0, B=6.0, cLat=0.1)] * 3)
        built = homogeneous_platform(3, S=1.0, B=6.0, cLat=0.1)
        wide = homogeneous_platform(5, S=1.0, B=6.0, cLat=0.1)
        hash(wide)  # the subset must not inherit its parent's cached hash
        sub = wide.subset([4, 0, 2])
        assert listed == built == sub
        assert hash(listed) == hash(built) == hash(sub)
        # The cached value is the dataclass hash of the fields.
        assert hash(built) == hash((built.workers,))
        assert hash(wide) != hash(sub)

    def test_cached_hash_stays_out_of_fields(self):
        p = homogeneous_platform(2, S=1.0, B=4.0)
        before = (repr(p), dataclasses.asdict(p), pickle.dumps(p))
        hash(p)
        assert (repr(p), dataclasses.asdict(p), pickle.dumps(p)) == before

    def test_pickle_round_trip_keeps_hash_and_equality(self):
        p = PlatformSpec([WorkerSpec(S=1.0, B=9.0), WorkerSpec(S=2.5, B=9.0, tLat=0.2)])
        hash(p)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p)
        assert {p: "plan"}[q] == "plan"


class TestHomogeneousConstructor:
    def test_bandwidth_factor_table1(self):
        # Table 1: B = factor * N * S.
        p = homogeneous_platform(20, S=1.0, bandwidth_factor=1.8)
        assert p[0].B == pytest.approx(36.0)

    def test_explicit_b(self):
        p = homogeneous_platform(4, S=2.0, B=10.0)
        assert p[0].B == 10.0

    def test_both_b_and_factor_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_platform(4, S=1.0, B=10.0, bandwidth_factor=1.5)

    def test_neither_b_nor_factor_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_platform(4, S=1.0)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            homogeneous_platform(0, S=1.0, B=1.0)

    def test_factor_above_one_satisfies_full_utilization(self):
        p = homogeneous_platform(50, S=1.0, bandwidth_factor=1.2)
        assert p.utilization_sum() == pytest.approx(1 / 1.2)

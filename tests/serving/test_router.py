"""Router tests: inverted-index attribution must match the linear-scan rule."""

from __future__ import annotations

import random

import pytest
from serving_helpers import FakeClock, make_service

from repro import SignalRecord, UnknownEnvironmentError
from repro.serving import LinearScanRouter, MacInvertedRouter


def record(record_id: str, macs, rss: float = -60.0) -> SignalRecord:
    return SignalRecord(record_id=record_id, rss={m: rss for m in macs})


def build_pair(vocabularies: dict, min_overlap: float = 0.1):
    linear = LinearScanRouter(min_overlap=min_overlap)
    inverted = MacInvertedRouter(min_overlap=min_overlap)
    for building_id, vocabulary in vocabularies.items():
        linear.add_building(building_id, vocabulary)
        inverted.add_building(building_id, vocabulary)
    return linear, inverted


class TestValidation:
    def test_min_overlap_validated(self):
        with pytest.raises(ValueError):
            MacInvertedRouter(min_overlap=0.0)
        with pytest.raises(ValueError):
            MacInvertedRouter(min_overlap=1.5)

    def test_empty_router_rejects_queries(self):
        router = MacInvertedRouter()
        with pytest.raises(RuntimeError):
            router.route(record("r", ["m1"]))

    def test_empty_rss_rejected(self):
        router = MacInvertedRouter()
        router.add_building("b", ["m1"])
        probe = record("r", ["m1"])
        probe.rss.clear()  # defeat SignalRecord's constructor validation
        with pytest.raises(UnknownEnvironmentError, match="no RSS readings"):
            router.route(probe)

    def test_unknown_record_rejected(self):
        router = MacInvertedRouter()
        router.add_building("b", ["m1", "m2"])
        with pytest.raises(UnknownEnvironmentError, match="does not match"):
            router.route(record("alien", ["somewhere-else"]))

    def test_min_overlap_threshold_applied(self):
        router = MacInvertedRouter(min_overlap=0.5)
        router.add_building("b", ["m1"])
        # 1 of 3 MACs known -> overlap 0.33 < 0.5.
        with pytest.raises(UnknownEnvironmentError):
            router.route(record("r", ["m1", "x1", "x2"]))


class TestAttribution:
    def test_basic_attribution_and_overlap(self):
        router = MacInvertedRouter()
        router.add_building("a", ["m1", "m2", "m3"])
        router.add_building("b", ["m4", "m5"])
        decision = router.route(record("r", ["m1", "m2", "m4", "unknown"]))
        assert decision.building_id == "a"
        assert decision.overlap == pytest.approx(0.5)

    def test_tie_breaks_to_earliest_registered(self):
        # Both buildings fully contain the probe; registration order decides.
        router = MacInvertedRouter()
        router.add_building("late-alpha", ["m1", "m2", "m9"])
        router.add_building("aaa-early", ["m1", "m2"])  # lexically first, registered second
        decision = router.route(record("r", ["m1", "m2"]))
        assert decision.building_id == "late-alpha"

    def test_replacement_keeps_tie_break_position(self):
        router = MacInvertedRouter()
        router.add_building("first", ["m1", "m2"])
        router.add_building("second", ["m1", "m2"])
        # Retrain "first" with a changed vocabulary; it must stay first.
        router.add_building("first", ["m1", "m2", "m3"])
        assert router.building_ids == ["first", "second"]
        assert router.route(record("r", ["m1", "m2"])).building_id == "first"
        # Stale MACs of a replaced vocabulary must stop matching.
        router.add_building("second", ["m9"])
        assert router.route(record("q", ["m9"])).building_id == "second"
        assert router.vocabulary_for("second") == frozenset({"m9"})

    def test_remove_building(self):
        linear, inverted = build_pair({"a": ["m1"], "b": ["m1", "m2"]})
        for router in (linear, inverted):
            router.remove_building("a")
            assert router.building_ids == ["b"]
            assert router.route(record("r", ["m1"])).building_id == "b"
            with pytest.raises(KeyError):
                router.remove_building("a")

    def test_matches_linear_scan_on_random_corpora(self):
        rng = random.Random(7)
        shared = [f"shared-{i}" for i in range(12)]
        vocabularies = {}
        for b in range(25):
            own = [f"b{b:02d}-ap{i}" for i in range(rng.randint(5, 30))]
            vocabularies[f"building-{b:02d}"] = own + rng.sample(
                shared, rng.randint(0, len(shared)))
        linear, inverted = build_pair(vocabularies, min_overlap=0.2)

        all_macs = sorted({m for v in vocabularies.values() for m in v})
        for i in range(300):
            size = rng.randint(1, 20)
            macs = rng.sample(all_macs, size)
            if rng.random() < 0.3:
                macs += [f"noise-{i}-{j}" for j in range(rng.randint(1, 5))]
            probe = record(f"probe-{i}", macs)
            try:
                expected = linear.route(probe)
            except UnknownEnvironmentError:
                with pytest.raises(UnknownEnvironmentError):
                    inverted.route(probe)
                continue
            assert inverted.route(probe) == expected

    def test_route_batch(self):
        _, inverted = build_pair({"a": ["m1"], "b": ["m2"]})
        decisions = inverted.route_batch([record("r1", ["m1"]),
                                          record("r2", ["m2"])])
        assert [d.building_id for d in decisions] == ["a", "b"]


class TestHotSwapPostings:
    """Incremental posting updates must equal a from-scratch rebuild."""

    def test_incremental_updates_match_fresh_rebuild(self):
        rng = random.Random(3)
        alphabet = [f"ap-{i}" for i in range(40)]
        router = MacInvertedRouter()
        vocabularies: dict[str, list[str]] = {}
        for step in range(120):
            building_id = f"b{rng.randint(0, 9)}"
            action = rng.random()
            if action < 0.25 and building_id in vocabularies:
                router.remove_building(building_id)
                del vocabularies[building_id]
            else:
                # Fresh registration or hot swap with a changed vocabulary.
                vocabulary = rng.sample(alphabet, rng.randint(3, 12))
                router.add_building(building_id, vocabulary)
                vocabularies[building_id] = vocabulary
            if not vocabularies:
                continue
            fresh = MacInvertedRouter.from_vocabularies(
                {b: vocabularies[b] for b in router.building_ids})
            for i in range(10):
                probe = record(f"probe-{step}-{i}",
                               rng.sample(alphabet, rng.randint(1, 6)))
                try:
                    expected = fresh.route(probe)
                except UnknownEnvironmentError:
                    with pytest.raises(UnknownEnvironmentError):
                        router.route(probe)
                    continue
                assert router.route(probe) == expected

    def test_service_hot_swap_routes_new_vocabulary_immediately(
            self, serving_corpus):
        """Regression: a swap with changed MACs must route correctly at once."""
        registry, held_out, training = serving_corpus
        service = make_service(registry, FakeClock())
        old_vocabulary = service.router.vocabulary_for("bldg-north")
        kept = sorted(old_vocabulary)[: len(old_vocabulary) // 2]
        replaced = [f"{mac}-replacement" for mac in
                    sorted(old_vocabulary)[len(old_vocabulary) // 2:]]

        model = service.model_for("bldg-north")
        service.install_building("bldg-north", model,
                                 vocabulary=kept + replaced)

        # New MACs route to the swapped building with no rebuild in between.
        probe = record("new-vocab-probe", replaced[:3])
        decision = service.router.route(probe)
        assert decision.building_id == "bldg-north"
        assert decision.overlap == 1.0
        # Dropped MACs must stop matching the swapped building.
        with pytest.raises(UnknownEnvironmentError):
            service.router.route(record(
                "stale-probe", sorted(old_vocabulary - frozenset(kept))[:3]))
        # Surviving MACs still route, and the tie-break position is kept.
        assert service.router.building_ids[0] == "bldg-north"
        assert service.router.route(
            record("kept-probe", kept[:3])).building_id == "bldg-north"

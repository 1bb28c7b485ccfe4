import gzip
import io
import json

import numpy as np
import pytest

from sketchsim import (
    COUNT_MAX,
    GenerationError,
    Multiset,
    TripletParseError,
    build_user_profiles,
    companion_sharing,
    corpus_pairs,
    dice,
    generate_synthetic,
    ingest_triplets,
    load_corpus,
    random_multiset,
    read_profiles,
    write_corpus,
    write_profiles,
)


class TestGenerateSynthetic:
    def test_extreme_targets(self, sd_pairs):
        assert sd_pairs[0].target_dice == 0.0
        assert sd_pairs[0].exact_dice == 0.0
        assert sd_pairs[-1].target_dice == 1.0
        assert sd_pairs[-1].exact_dice == 1.0
        assert sd_pairs[-1].other == sd_pairs[-1].base

    def test_default_corpus_shape(self, sd_pairs):
        assert len(sd_pairs) == 1001
        distincts = [sd_pairs[0].base.distinct_count()] + [p.other.distinct_count() for p in sd_pairs]
        mean_distinct = sum(distincts) / len(distincts)
        assert 60 <= mean_distinct <= 74, mean_distinct
        cardinality = sd_pairs[0].base.cardinality()
        assert all(p.other.cardinality() == cardinality for p in sd_pairs)

    def test_target_tracking_and_coverage(self, sd_pairs):
        cardinality = sd_pairs[0].base.cardinality()
        for pair in sd_pairs:
            assert abs(pair.exact_dice - pair.target_dice) <= 1.0 / cardinality
        achieved = sorted(p.exact_dice for p in sd_pairs)
        assert achieved == [p.exact_dice for p in sorted(sd_pairs, key=lambda p: p.target_dice)]
        max_gap = max(b - a for a, b in zip(achieved, achieved[1:]))
        assert max_gap <= 2.0 / len(sd_pairs), max_gap

    def test_exact_dice_is_oracle_recomputation(self, sd_pairs):
        for pair in sd_pairs[::97]:
            assert pair.exact_dice == dice(pair.base, pair.other)

    def test_deterministic_per_seed(self):
        a = generate_synthetic(3, pair_count=11, target_unique=12, string_length=6)
        b = generate_synthetic(3, pair_count=11, target_unique=12, string_length=6)
        assert [(p.base, p.other, p.exact_dice) for p in a] == [(p.base, p.other, p.exact_dice) for p in b]
        c = generate_synthetic(4, pair_count=11, target_unique=12, string_length=6)
        assert any(pa.other != pc.other for pa, pc in zip(a, c))

    def test_single_pair(self):
        pairs = generate_synthetic(0, pair_count=1, target_unique=10, string_length=8)
        assert len(pairs) == 1
        assert pairs[0].exact_dice == dice(pairs[0].base, pairs[0].other)

    def test_string_space_too_small(self):
        with pytest.raises(GenerationError):
            generate_synthetic(0, pair_count=3, target_unique=90, string_length=1)


class TestPairBuilders:
    def test_companion_shares_exactly_the_requested_mass(self):
        rng = np.random.default_rng(0)
        base = random_multiset(rng, 20, 8, count_range=(1, 5))
        total = base.cardinality()
        for shared in (0, 1, total // 2, total):
            other = companion_sharing(rng, base, shared, 8, count_range=(1, 5))
            assert other.cardinality() == total
            assert dice(base, other) == shared / total

    def test_random_multiset_forced_total(self):
        rng = np.random.default_rng(1)
        m = random_multiset(rng, 10, 8, count_range=(1, 3), total=100)
        assert m.cardinality() == 100
        assert m.distinct_count() == 10
        assert all(count >= 1 for _, count in m.items())


class TestIngest:
    def test_basic_parsing(self):
        plays = ingest_triplets(io.StringIO("u1\ts9\t3\n"))
        assert plays == {("u1", "s9"): 3}

    def test_zero_count_is_parse_error_with_line(self):
        with pytest.raises(TripletParseError) as info:
            ingest_triplets(io.StringIO("u1\ts9\t3\nu1\ts2\t0\n"))
        assert info.value.line_number == 2

    def test_non_integer_count(self):
        # int() accepts all but the first; only ASCII digits make a count
        for count_text in ("many", "\u0663", "1_000", " 7 "):
            with pytest.raises(TripletParseError) as info:
                ingest_triplets(io.StringIO(f"u1\ts9\t3\nu1\ts2\t{count_text}\n"))
            assert info.value.line_number == 2
            assert repr(count_text) in str(info.value)

    def test_wrong_field_count(self):
        with pytest.raises(TripletParseError):
            ingest_triplets(io.StringIO("u1\ts9\n"))

    def test_three_users_two_songs(self):
        lines = [f"u{u}\ts{s}\t{u + s}\n" for u in range(1, 4) for s in range(1, 3)]
        assert len(ingest_triplets(io.StringIO("".join(lines)))) == 6

    def test_blank_lines_skipped(self):
        assert len(ingest_triplets(io.StringIO("\nu1\ts1\t1\n\n"))) == 1

    def test_duplicates_summed_with_warning(self, caplog):
        lines = "u1\ts1\t2\nu1\ts1\t3\n" + "u2\ts1\t1\n" * 5
        with caplog.at_level("WARNING"):
            plays = ingest_triplets(io.StringIO(lines))
        assert list(plays.items()) == [(("u1", "s1"), 5), (("u2", "s1"), 5)]
        # one summary record per call: the count and the first few offenders
        assert len(caplog.records) == 1
        message = caplog.messages[0]
        assert message.startswith("5 duplicate")
        assert "line 2 ('u1', 's1')" in message and "line 4 ('u2', 's1')" in message
        assert "line 6" not in message

    def test_count_above_count_max_is_parse_error(self):
        with pytest.raises(TripletParseError) as info:
            ingest_triplets(io.StringIO(f"u1\ts9\t3\nu1\ts2\t{COUNT_MAX + 1}\n"))
        assert info.value.line_number == 2

    def test_duplicate_sum_above_count_max_is_parse_error(self):
        with pytest.raises(TripletParseError) as info:
            ingest_triplets(io.StringIO(f"u1\ts1\t{COUNT_MAX}\nu1\ts2\t1\nu1\ts1\t1\n"))
        assert info.value.line_number == 3
        assert ingest_triplets(io.StringIO(f"u1\ts1\t{COUNT_MAX - 1}\nu1\ts1\t1\n"))[("u1", "s1")] == COUNT_MAX

    def test_gzip_transparently_decompressed(self, tmp_path):
        path = tmp_path / "triplets.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("u1\ts1\t4\n")
        assert ingest_triplets(path) == {("u1", "s1"): 4}

    @pytest.mark.parametrize("compress", [bytes, gzip.compress], ids=["plain", "gzip"])
    def test_file_bytes_decoded_per_line(self, tmp_path, compress):
        path = tmp_path / "triplets.tsv"
        path.write_bytes(compress("\ufeffu1\ts1\t1\r\nué\tsöng\t2\n".encode("utf-8")))
        assert ingest_triplets(path) == {("u1", "s1"): 1, ("ué", "söng"): 2}  # one leading BOM dropped
        path.write_bytes(compress(b"u1\ts1\t1\n\n\xef\xbb\xbfu2\ts2\t2\nu3\ts\xff\t1\n"))
        with pytest.raises(TripletParseError) as info:
            ingest_triplets(path)
        assert info.value.line_number == 4
        assert "not UTF-8: byte 0xff" in str(info.value)
        path.write_bytes(compress(b"u1\ts1\t1\n\xef\xbb\xbfu2\ts2\t2\n"))
        assert list(ingest_triplets(path)) == [("u1", "s1"), ("\ufeffu2", "s2")]  # only line 1 loses a BOM


class TestProfiles:
    def _plays(self, distinct_by_user):
        return {
            (user, f"song{i}"): 1 + i % 3 for user, distinct in distinct_by_user.items() for i in range(distinct)
        }

    def test_min_distinct_boundary(self):
        profiles = build_user_profiles(self._plays({"a49": 49, "b50": 50, "c51": 51}), min_distinct=50)
        assert set(profiles) == {"b50", "c51"}
        assert profiles["b50"].distinct_count() == 50

    def test_filtering_is_monotone(self):
        plays = self._plays({f"u{i}": i for i in range(1, 40)})
        kept_sizes = [len(build_user_profiles(plays, m)) for m in range(0, 45, 5)]
        assert kept_sizes == sorted(kept_sizes, reverse=True)

    def test_profile_counts_are_play_counts(self):
        profiles = build_user_profiles({("u", "s"): 7}, min_distinct=0)
        assert profiles["u"].count("s") == 7

    def test_write_read_round_trip(self, tmp_path):
        profiles = {
            "u1": Multiset({"s1": 3, "s2": 1}),
            "u2": Multiset({"s9": 2}),
        }
        path = tmp_path / "profiles.tsv"
        write_profiles(path, profiles)
        assert read_profiles(path) == profiles


class TestCorpusManifest:
    def test_round_trip(self, tmp_path):
        pairs = generate_synthetic(5, pair_count=7, target_unique=10, string_length=8)
        manifest_path = write_corpus(tmp_path / "corpus", pairs, seed=5, target_unique=10, string_length=8)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["pair_count"] == 7
        assert len(manifest["pairs"]) == 7
        assert all("exact_dice" in entry for entry in manifest["pairs"])
        loaded = load_corpus(manifest_path)
        expected = corpus_pairs(pairs)
        assert [(pid, a, b) for pid, a, b in loaded] == expected
        # the base multiset is one shared object across loaded pairs
        assert all(a is loaded[0][1] for _, a, _ in loaded)

    def test_manifest_lists_multiset_stats(self, tmp_path):
        pairs = generate_synthetic(5, pair_count=3, target_unique=10, string_length=8)
        manifest_path = write_corpus(tmp_path / "c", pairs, seed=5, target_unique=10, string_length=8)
        manifest = json.loads(manifest_path.read_text())
        base_stats = manifest["multisets"][manifest["base_id"]]
        assert base_stats["distinct"] == pairs[0].base.distinct_count()
        assert base_stats["cardinality"] == pairs[0].base.cardinality()

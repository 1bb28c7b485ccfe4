import gzip
import json

import numpy as np
import pytest

from sketchsim import (
    COUNT_MAX,
    GenerationError,
    Multiset,
    TripletParseError,
    companion_sharing,
    dice,
    generate_synthetic,
    load_corpus,
    random_multiset,
    read_profiles,
    write_corpus,
    write_profiles,
)
from sketchsim import datasets
from sketchsim.cli import main


class TestGenerateSynthetic:
    def test_extreme_targets(self, sd_corpus):
        assert [pair_id for pair_id, _, _ in sd_corpus[:2]] == ["p0000", "p0001"]
        assert dice(*sd_corpus[0][1:]) == 0.0
        assert dice(*sd_corpus[-1][1:]) == 1.0
        assert sd_corpus[-1][2] == sd_corpus[-1][1]

    def test_default_corpus_shape(self, sd_corpus):
        assert len(sd_corpus) == 1001
        base = sd_corpus[0][1]
        assert all(a is base for _, a, _ in sd_corpus)
        distincts = [base.distinct_count()] + [b.distinct_count() for _, _, b in sd_corpus]
        mean_distinct = sum(distincts) / len(distincts)
        assert 60 <= mean_distinct <= 74, mean_distinct
        cardinality = base.cardinality()
        assert all(b.cardinality() == cardinality for _, _, b in sd_corpus)

    def test_target_tracking_and_coverage(self, sd_corpus):
        cardinality = sd_corpus[0][1].cardinality()
        achieved_in_target_order = [dice(a, b) for _, a, b in sd_corpus]
        for i, achieved in enumerate(achieved_in_target_order):
            assert abs(achieved - i / (len(sd_corpus) - 1)) <= 1.0 / cardinality
        achieved = sorted(achieved_in_target_order)
        assert achieved == achieved_in_target_order
        max_gap = max(b - a for a, b in zip(achieved, achieved[1:]))
        assert max_gap <= 2.0 / len(sd_corpus), max_gap

    def test_exact_dice_is_oracle_recomputation(self, tmp_path, sd_corpus):
        manifest_path = write_corpus(tmp_path / "sd", sd_corpus, seed=7, target_unique=67, string_length=10)
        entries = json.loads(manifest_path.read_text())["pairs"]
        assert [entry["exact_dice"] for entry in entries] == [dice(a, b) for _, a, b in sd_corpus]
        assert [entry["target_dice"] for entry in entries] == [i / 1000 for i in range(1001)]

    def test_deterministic_per_seed(self):
        a = generate_synthetic(3, pair_count=11, target_unique=12, string_length=6)
        b = generate_synthetic(3, pair_count=11, target_unique=12, string_length=6)
        assert a == b
        c = generate_synthetic(4, pair_count=11, target_unique=12, string_length=6)
        assert any(pa[2] != pc[2] for pa, pc in zip(a, c))

    def test_single_pair(self, tmp_path):
        corpus = generate_synthetic(0, pair_count=1, target_unique=10, string_length=8)
        assert [pair_id for pair_id, _, _ in corpus] == ["p0000"]
        manifest_path = write_corpus(tmp_path / "one", corpus, seed=0, target_unique=10, string_length=8)
        (entry,) = json.loads(manifest_path.read_text())["pairs"]
        assert entry["target_dice"] == 0.0
        assert entry["exact_dice"] == dice(corpus[0][1], corpus[0][2])

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


def _items(profiles):
    """Each user's (song, plays) entries, users and songs in the order the profiles hold them."""
    return {user: list(profile.items()) for user, profile in profiles.items()}


class TestIngest:
    def test_basic_parsing(self, text_file):
        assert _items(read_profiles(text_file("u1\ts9\t3\n"))) == {"u1": [(b"s9", 3)]}

    def test_zero_count_is_parse_error_with_line(self, text_file):
        with pytest.raises(TripletParseError) as info:
            read_profiles(text_file("u1\ts9\t3\nu1\ts2\t0\n"))
        assert info.value.line_number == 2

    def test_non_integer_count(self, text_file):
        # int() accepts all but the first; only ASCII digits make a count
        for count_text in ("many", "\u0663", "1_000", " 7 "):
            with pytest.raises(TripletParseError) as info:
                read_profiles(text_file(f"u1\ts9\t3\nu1\ts2\t{count_text}\n"))
            assert info.value.line_number == 2
            assert repr(count_text) in str(info.value)

    @pytest.mark.parametrize("line, reason", [
        ("u1\ts9\n", "expected 3 tab-separated fields, got 2"),
        ("\ts1\t1\n", "empty user or song id"),
        ("u1\t\t1\n", "empty user or song id"),
    ], ids=["two fields", "empty user", "empty song"])
    def test_malformed_line_is_parse_error(self, text_file, line, reason):
        with pytest.raises(TripletParseError) as info:
            read_profiles(text_file(line))
        assert str(info.value) == f"line 1: {reason}"

    def test_three_users_two_songs(self, text_file):
        lines = [f"u{u}\ts{s}\t{u + s}\n" for u in range(1, 4) for s in range(1, 3)]
        profiles = read_profiles(text_file("".join(lines)))
        assert _items(profiles) == {f"u{u}": [(f"s{s}".encode(), u + s) for s in range(1, 3)] for u in range(1, 4)}
        assert [profile.cardinality() for profile in profiles.values()] == [5, 7, 9]

    def test_blank_lines_skipped(self, text_file):
        assert _items(read_profiles(text_file("\nu1\ts1\t1\n\n"))) == {"u1": [(b"s1", 1)]}

    def test_duplicates_summed_with_warning(self, caplog, text_file):
        lines = "u1\ts1\t2\nu1\ts1\t3\n" + "u2\ts1\t1\n" * 5
        with caplog.at_level("WARNING"):
            profiles = read_profiles(text_file(lines))
        assert list(_items(profiles).items()) == [("u1", [(b"s1", 5)]), ("u2", [(b"s1", 5)])]
        assert [profile.cardinality() for profile in profiles.values()] == [5, 5]
        # one summary record per call: the count and the first few offenders
        assert len(caplog.records) == 1
        message = caplog.messages[0]
        assert message.startswith("5 duplicate")
        assert "line 2 ('u1', 's1')" in message and "line 4 ('u2', 's1')" in message
        assert "line 6" not in message

    def test_count_above_count_max_is_parse_error(self, text_file):
        with pytest.raises(TripletParseError) as info:
            read_profiles(text_file(f"u1\ts9\t3\nu1\ts2\t{COUNT_MAX + 1}\n"))
        assert info.value.line_number == 2

    def test_duplicate_sum_above_count_max_is_parse_error(self, text_file):
        with pytest.raises(TripletParseError) as info:
            read_profiles(text_file(f"u1\ts1\t{COUNT_MAX}\nu1\ts2\t1\nu1\ts1\t1\n"))
        assert info.value.line_number == 3
        assert read_profiles(text_file(f"u1\ts1\t{COUNT_MAX - 1}\nu1\ts1\t1\n"))["u1"].count("s1") == COUNT_MAX

    def test_count_past_the_int_digit_limit_is_a_short_parse_error(self, text_file):
        # int() refuses a digit string past 4,300 digits; the error quotes the count in a bounded repr
        with pytest.raises(TripletParseError) as info:
            read_profiles(text_file(f"u1\ts9\t3\nu1\ts2\t{'9' * 100_000}\nu1\ts3\t1\n"))
        assert info.value.line_number == 2
        assert str(info.value).startswith("line 2: play count is not an integer: '9")
        assert len(str(info.value)) < 200
        with pytest.raises(TripletParseError) as info:  # below the limit: a range error, quoted the same way
            read_profiles(text_file(f"u1\ts2\t{'9' * 4_000}\n"))
        assert str(info.value).startswith(f"line 1: play count must be in [1, {COUNT_MAX}], got 99")
        assert len(str(info.value)) < 200

    def test_long_ids_are_quoted_briefly(self, caplog, text_file):
        user, song = "u" * 10_000, "s" * 10_000
        with caplog.at_level("WARNING"):
            read_profiles(text_file(f"{user}\t{song}\t1\n{user}\t{song}\t1\n"))
        assert len(caplog.messages) == 1 and len(caplog.messages[0]) < 200
        assert caplog.messages[0].startswith("1 duplicate (user, song) lines; counts summed (first: line 2 ('uuu")
        with pytest.raises(TripletParseError) as info:
            read_profiles(text_file(f"{user}\t{song}\t{COUNT_MAX}\n{user}\t{song}\t1\n"))
        assert info.value.line_number == 2 and len(str(info.value)) < 200
        assert str(info.value).startswith("line 2: summed play count of ('uuu")

    def test_bad_count_ends_a_block_before_an_undecodable_line(self, monkeypatch, tmp_path):
        monkeypatch.setattr(datasets, "_BLOCK_LINES", 2)
        path = tmp_path / "triplets.tsv"
        path.write_bytes(b"u1\ts1\t1\nu1\ts2\tx\nu1\ts\xff\t1\n")  # lines 1-2, then line 3 opens the next block
        with pytest.raises(TripletParseError) as info:
            read_profiles(path)
        assert str(info.value) == "line 2: play count is not an integer: 'x'"
        path.write_bytes(b"u1\ts1\t1\nu1\ts2\t2\nu1\ts\xff\t1\n")
        with pytest.raises(TripletParseError) as info:
            read_profiles(path)
        assert str(info.value) == "line 3: not UTF-8: byte 0xff (invalid start byte)"

    def test_summed_overflow_precedes_a_later_undecodable_line_of_its_block(self, monkeypatch, tmp_path):
        monkeypatch.setattr(datasets, "_BLOCK_LINES", 3)
        path = tmp_path / "triplets.tsv"
        path.write_bytes(b"u1\ts1\t%d\nu1\ts1\t1\nu1\ts\xff\t1\n" % COUNT_MAX)  # one block of three lines
        with pytest.raises(TripletParseError) as info:
            read_profiles(path)
        assert str(info.value) == f"line 2: summed play count of ('u1', 's1') exceeds {COUNT_MAX}"

    @pytest.mark.parametrize("bad_line", [False, True], ids=["whole lines", "bad count before the break"])
    def test_gzip_stream_breaking_mid_block(self, monkeypatch, tmp_path, bad_line):
        monkeypatch.setattr(datasets, "_BLOCK_LINES", 3)
        lines = [b"u%d\ts%d\t%d\n" % (i % 7, i, i + 1) for i in range(400)]
        if bad_line:
            lines[300] = b"u1\ts1\tmany\n"  # line 301 opens a block
        packed = gzip.compress(b"".join(lines), mtime=0)
        path = tmp_path / "triplets.tsv.gz"
        for end in range(len(packed) // 2, len(packed)):  # the first cut that gives up line 301
            path.write_bytes(packed[:end])
            read = 0
            with gzip.open(path, "rb") as handle, pytest.raises(EOFError):
                for read, _ in enumerate(handle, 1):
                    pass
            if read >= 301:
                break
        assert read in (301, 302)  # the break is in line 301's block, after it
        with pytest.raises(TripletParseError) as info:
            read_profiles(path)
        if bad_line:
            assert str(info.value) == "line 301: play count is not an integer: 'many'"
        else:
            assert str(info.value).startswith(f"line {read + 1}: compressed stream is damaged: ")

    def test_gzip_transparently_decompressed(self, tmp_path):
        path = tmp_path / "triplets.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("u1\ts1\t4\n")
        assert _items(read_profiles(path)) == {"u1": [(b"s1", 4)]}

    @pytest.mark.parametrize("compress", [bytes, gzip.compress], ids=["plain", "gzip"])
    def test_file_bytes_decoded_per_line(self, tmp_path, compress):
        path = tmp_path / "triplets.tsv"
        path.write_bytes(compress("\ufeffu1\ts1\t1\r\nué\tsöng\t2\n".encode("utf-8")))
        # one leading BOM dropped
        assert _items(read_profiles(path)) == {"u1": [(b"s1", 1)], "ué": [("söng".encode(), 2)]}
        path.write_bytes(compress(b"u1\ts1\t1\n\n\xef\xbb\xbfu2\ts2\t2\nu3\ts\xff\t1\n"))
        with pytest.raises(TripletParseError) as info:
            read_profiles(path)
        assert info.value.line_number == 4
        assert "not UTF-8: byte 0xff" in str(info.value)
        path.write_bytes(compress(b"u1\ts1\t1\n\xef\xbb\xbfu2\ts2\t2\n"))
        # only line 1 loses a BOM
        assert list(_items(read_profiles(path)).items()) == [("u1", [(b"s1", 1)]), ("\ufeffu2", [(b"s2", 2)])]

class TestProfiles:
    def _ingest(self, tmp_path, distinct_by_user, min_distinct):
        """The users `sketchsim ingest --min-distinct` keeps from these users' triplets, read back."""
        triplets, out = tmp_path / "triplets.tsv", tmp_path / "profiles.tsv"
        write_profiles(triplets, {
            user: Multiset({f"song{i}": 1 + i % 3 for i in range(distinct)}) for user, distinct in distinct_by_user.items()
        })
        assert main(["ingest", str(triplets), "--out", str(out), "--min-distinct", str(min_distinct)]) == 0
        return read_profiles(out)

    def test_min_distinct_boundary(self, tmp_path):
        profiles = self._ingest(tmp_path, {"a49": 49, "b50": 50, "c51": 51}, 50)
        assert set(profiles) == {"b50", "c51"}
        assert profiles["b50"].distinct_count() == 50

    def test_filtering_is_monotone(self, tmp_path):
        users = {f"u{i}": i for i in range(1, 40)}
        kept_sizes = [len(self._ingest(tmp_path, users, m)) for m in range(0, 45, 5)]
        assert kept_sizes == sorted(kept_sizes, reverse=True)
        assert kept_sizes == [sum(distinct >= m for distinct in users.values()) for m in range(0, 45, 5)]

    def test_profile_counts_are_play_counts(self, text_file):
        assert read_profiles(text_file("u\ts\t7\n"))["u"].count("s") == 7

    def test_write_read_round_trip(self, tmp_path):
        profiles = {
            "u1": Multiset({"s1": 3, "s2": 1}),
            "u2": Multiset({"s9": 2}),
        }
        path = tmp_path / "profiles.tsv"
        write_profiles(path, profiles)
        assert read_profiles(path) == profiles

    @pytest.mark.parametrize("user, songs, named", [
        ("", {"s": 1}, "user id ''"),
        ("u\t1", {"s": 1}, "user id 'u\\t1'"),
        ("u\n1", {"s": 1}, "user id 'u\\n1'"),
        ("u\udc80", {"s": 1}, "user id 'u\\udc80'"),
        ("u", {"ok": 1, "s\t1": 2}, "song b's\\t1' of user 'u'"),
        ("u", {"ok": 1, "s\n1": 2}, "song b's\\n1' of user 'u'"),
        ("u", {"ok": 1, b"caf\xe9": 2}, "song b'caf\\xe9' of user 'u'"),
        (5, {"s": 1}, "user id 5"),
    ], ids=["empty user", "tab in user", "LF in user", "surrogate user", "tab in song", "LF in song", "latin-1 song",
            "int user"])
    def test_unreadable_ids_are_refused_before_the_file_is_opened(self, tmp_path, user, songs, named):
        path = tmp_path / "profiles.tsv"
        with pytest.raises(ValueError) as info:
            write_profiles(path, {"first": Multiset({"s": 1}), user: Multiset(songs)})
        assert str(info.value).startswith(f"{named} cannot be written")
        assert not path.exists()
        # write_corpus writes through write_profiles: no file is written
        out = tmp_path / "corpus"
        with pytest.raises(ValueError):
            write_corpus(out, [(user, Multiset({"a": 1}), Multiset(songs))], seed=0, target_unique=1, string_length=1)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("profiles, named", [
        ({"\ufeffu": Multiset({"s": 1}), "v": Multiset({"s": 2})}, "user id '\\ufeffu'"),
        ({"first": Multiset({"s": 1}), "u": Multiset()}, "user id 'u'"),
    ], ids=["BOM in first user", "empty profile"])
    def test_unreadable_maps_are_refused_before_the_file_is_opened(self, tmp_path, profiles, named):
        # read_profiles drops a BOM from line 1, and reads an empty profile's line as two fields
        path = tmp_path / "profiles.tsv"
        with pytest.raises(ValueError) as info:
            write_profiles(path, profiles)
        assert str(info.value).startswith(f"{named} cannot be written")
        assert not path.exists()

    def test_ids_with_cr_and_line_separators_round_trip(self, tmp_path):
        # only a tab or LF ends a field or a line; the reader strips a line end from the count alone
        profiles = {"u\r": Multiset({"s\r": 1, " \x85": 2}), "\ufeffv": Multiset({"é": 3})}
        path = tmp_path / "profiles.tsv"
        write_profiles(path, {"first": Multiset({"s": 1}), **profiles})
        assert read_profiles(path) == {"first": Multiset({"s": 1}), **profiles}


class TestCorpusManifest:
    def test_round_trip(self, tmp_path):
        corpus = generate_synthetic(5, pair_count=7, target_unique=10, string_length=8)
        manifest_path = write_corpus(tmp_path / "corpus", corpus, seed=5, target_unique=10, string_length=8)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["pair_count"] == 7
        assert len(manifest["pairs"]) == 7
        assert all("exact_dice" in entry for entry in manifest["pairs"])
        loaded = load_corpus(manifest_path)
        assert loaded == corpus
        # the base multiset is one shared object across loaded pairs
        assert all(a is loaded[0][1] for _, a, _ in loaded)

    def test_manifest_lists_multiset_stats(self, tmp_path):
        corpus = generate_synthetic(5, pair_count=3, target_unique=10, string_length=8)
        manifest_path = write_corpus(tmp_path / "c", corpus, seed=5, target_unique=10, string_length=8)
        manifest = json.loads(manifest_path.read_text())
        base_stats = manifest["multisets"][manifest["base_id"]]
        assert base_stats["distinct"] == corpus[0][1].distinct_count()
        assert base_stats["cardinality"] == corpus[0][1].cardinality()

    @pytest.mark.parametrize("case", ["empty", "other-base", "repeated-id", "base-id", "empty-multiset"])
    def test_unreadable_corpus_is_refused_before_writing(self, tmp_path, case):
        base, other = Multiset({"a": 2, "b": 1}), Multiset({"a": 1, "c": 2})
        corpus = {
            "empty": [],
            "other-base": [("p0000", base, other), ("p0001", other, base)],
            "repeated-id": [("p0000", base, other), ("p0000", base, base)],
            "base-id": [("base", base, other)],
            "empty-multiset": [("p0000", base, Multiset())],
        }[case]
        out = tmp_path / "corpus"
        with pytest.raises(ValueError):
            write_corpus(out, corpus, seed=0, target_unique=2, string_length=1)
        assert not out.exists()

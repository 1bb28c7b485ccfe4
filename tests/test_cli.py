import gzip
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from sketchsim import (
    COUNTER_MAX,
    BloomFilter,
    CountingBloomFilter,
    CountMinSketch,
    Multiset,
    cbf_cosine,
    cbf_dice,
    cms_cosine,
    cms_dice,
    cosine,
    datasets,
    decode,
    dice,
    encode,
    experiments,
    read_profiles,
    write_corpus,
    write_profiles,
)
from sketchsim.cli import build_parser, main

FIXTURE = Path(__file__).parent / "data" / "fixture_triplets.tsv"
README = Path(__file__).parent.parent / "README.md"
GRID_CSVS = Path(__file__).parent / "data" / "grid"  # recorded by earlier engines, so a faster one must match them


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_small_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code, _, err = run(capsys, "gen", "--out", str(out), "--pairs", "11",
                           "--unique", "12", "--strlen", "8", "--seed", "7")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pair_count"] == 11
        assert len(manifest["pairs"]) == 11
        assert "11 pairs" in err

    def test_single_pair_records_achieved_dice(self, tmp_path, capsys):
        out = tmp_path / "one"
        code, _, _ = run(capsys, "gen", "--out", str(out), "--pairs", "1",
                         "--unique", "10", "--strlen", "8")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["pairs"]) == 1
        assert "exact_dice" in manifest["pairs"][0]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ("--pairs", "5", "--unique", "10", "--strlen", "8", "--seed", "3")
        run(capsys, "gen", "--out", str(tmp_path / "a"), *args)
        run(capsys, "gen", "--out", str(tmp_path / "b"), *args)
        assert (tmp_path / "a/manifest.json").read_bytes() == (tmp_path / "b/manifest.json").read_bytes()
        assert (tmp_path / "a/profiles.tsv").read_bytes() == (tmp_path / "b/profiles.tsv").read_bytes()

    def test_output_bytes_pinned(self, tmp_path, capsys):
        """A small `gen` run writes the recorded manifest and profiles, byte for byte."""
        out = tmp_path / "pinned"
        assert run(capsys, "gen", "--out", str(out), "--pairs", "7", "--unique", "10",
                   "--strlen", "8", "--seed", "5")[0] == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("manifest.json", "profiles.tsv")} == {
            "manifest.json": "879f0c69c5534d88b1df6784aae5926b18312b28b077c38009332a9d83998514",
            "profiles.tsv": "275359381c5c13d1f10735b17cad70aace9ed30cbf4008ba3d839811fb1230b0",
        }

    def test_full_scale_defaults(self, tmp_path, capsys):
        out = tmp_path / "sd"
        code, _, _ = run(capsys, "gen", "--out", str(out), "--seed", "7")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["pairs"]) == 1001
        distincts = [stats["distinct"] for stats in manifest["multisets"].values()]
        assert 60 <= sum(distincts) / len(distincts) <= 74


class TestIngest:
    def test_summary_and_output(self, tmp_path, capsys):
        out = tmp_path / "profiles.tsv"
        code, _, err = run(capsys, "ingest", str(FIXTURE), "--out", str(out), "--min-distinct", "50")
        assert code == 0
        assert "kept 28 of 50 users" in err
        profiles = read_profiles(out)
        assert len(profiles) == 28
        assert all(p.distinct_count() >= 50 for p in profiles.values())

    def test_min_distinct_zero_keeps_all(self, tmp_path, capsys):
        out = tmp_path / "profiles.tsv"
        code, _, err = run(capsys, "ingest", str(FIXTURE), "--out", str(out), "--min-distinct", "0")
        assert code == 0
        assert "kept 50 of 50 users" in err

    def test_malformed_line_reports_number_and_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("u1\ts1\t2\nu1\ts2\tzero\n")
        code, _, err = run(capsys, "ingest", str(bad), "--out", str(tmp_path / "x.tsv"))
        assert code == 1
        assert "line 2" in err

    def test_count_sum_past_count_max_fails_with_line(self, tmp_path, capsys):
        bad = tmp_path / "big.tsv"
        bad.write_text("u1\ts1\t18446744073709551615\nu1\ts1\t1\n")
        code, _, err = run(capsys, "ingest", str(bad), "--out", str(tmp_path / "x.tsv"))
        assert code == 1
        assert "line 2" in err
        assert "Traceback" not in err

    def test_non_utf8_byte_fails_with_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(b"u1\ts1\t2\nu1\tcaf\xe9\t1\n")
        code, _, err = run(capsys, "ingest", str(bad), "--out", str(tmp_path / "x.tsv"))
        assert code == 1
        assert err.splitlines() == ["sketchsim: error: line 2: not UTF-8: byte 0xe9 (invalid continuation byte)"]

    def test_first_kept_user_with_a_bom_is_data_error(self, tmp_path, capsys):
        # a BOM survives in a later line's id; once the user before it is dropped, it would lead line 1
        triplets, out = tmp_path / "bom.tsv", tmp_path / "x.tsv"
        triplets.write_bytes("a\ts\t1\n\ufeffv\ts\t1\n\ufeffv\tt\t1\n".encode())
        code, _, err = run(capsys, "ingest", str(triplets), "--out", str(out), "--min-distinct", "2")
        assert code == 1
        assert err.splitlines() == ["sketchsim: error: user id '\\ufeffv' cannot be written first: it begins with U+FEFF"]
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_is_data_error(self, tmp_path, capsys, damage):
        data = bytearray(gzip.compress(FIXTURE.read_bytes()))
        if damage == "truncated":
            data = data[: len(data) // 2]
        else:
            data[200:260] = bytes(b ^ 0xFF for b in data[200:260])
        bad = tmp_path / "bad.tsv.gz"
        bad.write_bytes(bytes(data))
        code, _, err = run(capsys, "ingest", str(bad), "--out", str(tmp_path / "x.tsv"))
        assert code == 1
        assert err.startswith("sketchsim: error: line ") and "compressed stream is damaged" in err
        assert "Traceback" not in err

    def test_interleaved_users_and_duplicates_pinned(self, tmp_path, capsys, caplog):
        # users interleave; lines 5 and 7 repeat lines 1 and 2, with other lines between
        triplets, out = tmp_path / "triplets.tsv", tmp_path / "profiles.tsv"
        triplets.write_text("u2\tb\t1\nu1\tz\t2\nu2\ta\t3\nu1\ty\t1\nu2\tb\t4\nu3\tx\t1\nu1\tz\t5\n")
        with caplog.at_level("WARNING"):
            code, stdout, err = run(capsys, "ingest", str(triplets), "--out", str(out), "--min-distinct", "2")
        assert (code, stdout) == (0, "")
        # kept users in first-seen order, each user's songs sorted, duplicate lines summed
        assert out.read_bytes() == b"u2\ta\t3\nu2\tb\t5\nu1\ty\t1\nu1\tz\t7\n"
        assert err == f"kept 2 of 3 users (min 2 distinct songs), 4 distinct songs, 16 recorded plays -> {out}\n"
        assert caplog.messages == [
            "2 duplicate (user, song) lines; counts summed (first: line 5 ('u2', 'b'), line 7 ('u1', 'z'))"
        ]


class TestSketchAndCompare:
    @pytest.fixture
    def profile(self, tmp_path):
        path = tmp_path / "me.tsv"
        write_profiles(path, {"me": Multiset({f"s{i:03d}": 1 + i % 4 for i in range(60)})})
        return path

    def test_sketch_reports_539_bytes(self, tmp_path, capsys, profile):
        out = tmp_path / "me.sketch"
        code, _, err = run(capsys, "sketch", str(profile), "--out", str(out),
                           "--length", "128", "--hashes", "1")
        assert code == 0
        assert "539 bytes" in err
        assert out.stat().st_size == 539
        decoded = decode(out.read_bytes())
        assert decoded.length == 128

    def test_envelope_compare_with_itself_is_one(self, tmp_path, capsys, profile):
        env = tmp_path / "me.sketch"
        run(capsys, "sketch", str(profile), "--out", str(env))
        code, out_text, _ = run(capsys, "compare", str(env), str(env))
        assert code == 0
        assert out_text.splitlines()[0] == "estimate\t1.0"

    def test_profile_compare_same_profile(self, capsys, profile):
        code, out_text, _ = run(capsys, "compare", str(profile), str(profile), "--truth")
        assert code == 0
        lines = dict(line.split("\t") for line in out_text.splitlines())
        assert lines["estimate"] == "1.0"
        assert lines["truth"] == "1.0"
        assert lines["error"] == "0.0"

    def test_incompatible_envelopes_exit_2_with_fields(self, tmp_path, capsys, profile):
        a = tmp_path / "a.sketch"
        b = tmp_path / "b.sketch"
        run(capsys, "sketch", str(profile), "--out", str(a), "--seed", "1")
        run(capsys, "sketch", str(profile), "--out", str(b), "--seed", "2")
        code, _, err = run(capsys, "compare", str(a), str(b))
        assert code == 2
        assert "seed" in err

    def test_sd_pair_overestimates_truth(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        run(capsys, "gen", "--out", str(corpus), "--pairs", "3", "--unique", "20",
            "--strlen", "8", "--seed", "5")
        profiles = corpus / "profiles.tsv"
        code, out_text, _ = run(
            capsys, "compare", str(profiles), str(profiles),
            "--user-a", "base", "--user-b", "p0001",
            "--length", "400", "--truth",
        )
        assert code == 0
        lines = dict(line.split("\t") for line in out_text.splitlines())
        assert float(lines["estimate"]) >= float(lines["truth"])
        assert float(lines["error"]) >= 0.0

    def test_multi_profile_file_needs_user_flag(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        run(capsys, "gen", "--out", str(corpus), "--pairs", "3", "--unique", "10", "--strlen", "8")
        profiles = corpus / "profiles.tsv"
        code, _, err = run(capsys, "compare", str(profiles), str(profiles))
        assert code == 1
        assert "--user" in err

    def test_bad_shape_flags_on_envelopes_are_usage_error(self, tmp_path, capsys, profile):
        env = tmp_path / "me.sketch"
        run(capsys, "sketch", str(profile), "--out", str(env))
        for flags in (("--kind", "cms", "--hashes", "3"), ("--length", "4294967296"), ("--depth", "2")):
            code, out_text, err = run(capsys, "compare", str(env), str(env), *flags)
            assert code == 64, flags
            assert out_text == "" and err.count("usage:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flags, fields", [
        (("--kind", "cms", "--depth", "4", "--length", "64"), "kind, width, depth"),
        (("--length", "64"), "width"),
        (("--hashes", "2"), "hash_count"),
        (("--seed", "3"), "seed"),
    ], ids=["cms-shape", "length", "hashes", "seed"])
    def test_shape_flags_unlike_the_envelopes_exit_2_with_fields(self, tmp_path, capsys, profile, flags, fields):
        env = tmp_path / "me.sketch"
        run(capsys, "sketch", str(profile), "--out", str(env))
        code, out_text, err = run(capsys, "compare", str(env), str(env), *flags)
        assert (code, out_text) == (2, "")
        assert err == f"sketchsim: incompatible sketches: {fields}\n"

    def test_shape_flags_like_the_envelopes_are_accepted(self, tmp_path, capsys, profile):
        env = tmp_path / "me.sketch"
        run(capsys, "sketch", str(profile), "--out", str(env), "--kind", "cms", "--depth", "4", "--width", "64")
        code, out_text, _ = run(capsys, "compare", str(env), str(env), "--kind", "cms", "--depth", "4",
                                "--length", "64", "--hashes", "1", "--seed", "0")
        assert (code, out_text) == (0, "estimate\t1.0\n")

    @pytest.mark.parametrize("flags, code, err_has", [
        (("--depth", "4"), 0, None),
        (("--width", "64", "--seed", "0"), 0, None),
        (("--depth", "2"), 2, "sketchsim: incompatible sketches: depth\n"),
        (("--width", "32", "--seed", "1"), 2, "sketchsim: incompatible sketches: width, seed\n"),
        (("--hashes", "2"), 64, "hash_count must be 1"),
        (("--kind", "cbf"), 64, "depth must be 1"),
    ], ids=["depth-same", "width-seed-same", "depth-unlike", "width-seed-unlike", "hashes-on-cms", "cbf-of-depth-4"])
    def test_shape_flags_on_cms_envelopes_apply_to_their_shape(self, tmp_path, capsys, profile, flags, code, err_has):
        env = tmp_path / "c.env"
        run(capsys, "sketch", str(profile), "--out", str(env), "--kind", "cms", "--depth", "4", "--width", "64")
        got, out_text, err = run(capsys, "compare", str(env), str(env), *flags)
        assert got == code, err
        assert out_text == ("estimate\t1.0\n" if code == 0 else "")
        if code == 2:
            assert err == err_has
        elif code == 64:
            assert err.count("usage:") == 1 and err_has in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--user-a", "--user-b"])
    def test_user_flags_on_envelopes_are_usage_error(self, tmp_path, capsys, profile, flag):
        env = tmp_path / "me.sketch"
        run(capsys, "sketch", str(profile), "--out", str(env))
        code, out_text, err = run(capsys, "compare", str(env), str(env), flag, "nobody")
        assert (code, out_text) == (64, "")
        assert err.count("usage:") == 1 and flag in err and "Traceback" not in err

    def test_empty_profile_file_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_bytes(b"")
        out = tmp_path / "a.env"
        code, _, err = run(capsys, "sketch", str(empty), "--out", str(out))
        assert code == 1
        assert err.splitlines()[-1] == f"sketchsim: error: {empty} holds no profiles"
        assert not out.exists()

    def test_zero_hashes_is_usage_error(self, capsys, profile, tmp_path):
        code, _, _ = run(capsys, "sketch", str(profile), "--out", str(tmp_path / "x"), "--hashes", "0")
        assert code == 64

    def test_depth_with_cbf_is_usage_error(self, capsys, profile, tmp_path):
        code, _, _ = run(capsys, "compare", str(profile), str(profile), "--depth", "3")
        assert code == 64

    def test_hashes_with_cms_is_usage_error(self, capsys, profile, tmp_path):
        out = tmp_path / "x"
        code, _, err = run(capsys, "sketch", str(profile), "--out", str(out), "--kind", "cms", "--hashes", "2")
        assert code == 64
        assert err.count("usage:") == 1 and "Traceback" not in err
        assert err.splitlines()[-1] == "sketchsim: error: a cms probes each row once: hash_count must be 1, got 2"
        assert not out.exists()


class TestLibraryPaths:
    """`sketch` and `compare` print exactly what the public library gives."""

    SCORERS = {("cbf", "dice"): cbf_dice, ("cbf", "cosine"): cbf_cosine,
               ("cms", "dice"): cms_dice, ("cms", "cosine"): cms_cosine}

    @pytest.fixture
    def profiles(self, tmp_path):
        left = Multiset({"hot": 2**32 + 5, "cold": 3, "warm": 1})  # saturates a counter
        right = Multiset({"hot": 7, "cold": 2, "new": 5})
        paths = [tmp_path / "left.tsv", tmp_path / "right.tsv"]
        for path, profile in zip(paths, (left, right)):
            write_profiles(path, {path.stem: profile})
        return (left, right), paths

    @pytest.mark.parametrize("metric", ["dice", "cosine"])
    @pytest.mark.parametrize("kind, sketch_type, flag", [("cbf", CountingBloomFilter, "--hashes"),
                                                         ("cms", CountMinSketch, "--depth")])
    def test_sketch_and_compare_match_library(self, tmp_path, capsys, profiles, kind, sketch_type, flag, metric):
        (left, right), paths = profiles
        shape = 3 if kind == "cbf" else 4
        sketch_args = ("--kind", kind, flag, str(shape), "--length", "32", "--seed", "5")
        sketches, envelopes = [], []
        for profile, path in zip((left, right), paths):
            out = tmp_path / f"{path.stem}.env"
            code, _, err = run(capsys, "sketch", str(path), "--out", str(out), *sketch_args)
            sketches.append(sketch_type.from_multiset(profile, 32, shape, 5))
            assert code == 0
            assert out.read_bytes() == encode(sketches[-1])
            assert ("warning: at least one counter saturated" in err) == (profile is left)
            envelopes.append(str(out))
        estimate = self.SCORERS[kind, metric](*sketches)
        assert run(capsys, "compare", *envelopes, "--metric", metric)[:2] == (0, f"estimate\t{estimate!r}\n")
        truth = {"dice": dice, "cosine": cosine}[metric](left, right)
        code, out, _ = run(capsys, "compare", *map(str, paths), *sketch_args, "--metric", metric, "--truth")
        assert (code, out) == (0, f"estimate\t{estimate!r}\ntruth\t{truth!r}\nerror\t{estimate - truth!r}\n")

    @pytest.mark.parametrize("count", [COUNTER_MAX - 1, COUNTER_MAX, COUNTER_MAX + 1])
    def test_sketch_warns_exactly_when_the_receiver_sees_saturation(self, tmp_path, capsys, count):
        path, out = tmp_path / "hot.tsv", tmp_path / "hot.env"
        write_profiles(path, {"hot": Multiset({"song": count, "other": 2})})
        code, _, err = run(capsys, "sketch", str(path), "--out", str(out))
        assert code == 0
        warned = "warning: at least one counter saturated" in err
        assert warned == decode(out.read_bytes()).saturated == (count >= COUNTER_MAX)

    def test_bloom_filter_envelopes_rejected(self, tmp_path, capsys, profiles):
        (left, _), _ = profiles
        envelope = tmp_path / "bf.env"
        envelope.write_bytes(encode(BloomFilter.from_multiset(left, 32, 2, 5)))
        code, out, err = run(capsys, "compare", str(envelope), str(envelope))
        assert (code, out) == (1, "")
        assert err.startswith("sketchsim: error:") and "carry no counts" in err

    def test_envelope_with_padding_bits_is_data_error(self, tmp_path, capsys):
        envelope = tmp_path / "bf.env"
        clean = encode(BloomFilter(5, 1, 0))
        envelope.write_bytes(clean[:-1] + bytes([clean[-1] | 0b11100000]))
        code, out, err = run(capsys, "compare", str(envelope), str(envelope))
        assert (code, out) == (1, "")
        assert err.startswith("sketchsim: error:") and "padding" in err


class TestGridAndThreshold:
    @pytest.fixture
    def corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        run(capsys, "gen", "--out", str(out), "--pairs", "21", "--unique", "15",
            "--strlen", "8", "--seed", "2")
        return out / "manifest.json"

    def test_grid_csv(self, tmp_path, capsys, corpus):
        out = tmp_path / "grid.csv"
        code, _, err = run(capsys, "grid", "--corpus", str(corpus), "--out", str(out),
                           "--kind", "cbf", "--dims", "64,128", "--depths", "1,2", "--seed", "1")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "dim,depth,rmse"
        assert len(lines) == 5

    @pytest.mark.parametrize("kind, metric", [("cbf", "dice"), ("cbf", "cosine"), ("cms", "dice"), ("cms", "cosine")])
    def test_default_lattice_csv_is_pinned(self, tmp_path, capsys, kind, metric):
        """The default 5x5 lattice over `gen --pairs 51 --unique 24 --seed 2` gives the recorded CSV byte for byte."""
        corpus = tmp_path / "corpus"
        assert run(capsys, "gen", "--out", str(corpus), "--pairs", "51", "--unique", "24", "--seed", "2")[0] == 0
        out = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "grid", "--corpus", str(corpus / "manifest.json"), "--out", str(out),
                         "--kind", kind, "--metric", metric)
        assert code == 0
        assert out.read_bytes() == (GRID_CSVS / f"{kind}_{metric}.csv").read_bytes()

    def test_grid_deterministic(self, tmp_path, capsys, corpus):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("--kind", "cms", "--dims", "64", "--depths", "1,2", "--seed", "9")
        run(capsys, "grid", "--corpus", str(corpus), "--out", str(a), *args)
        run(capsys, "grid", "--corpus", str(corpus), "--out", str(b), *args)
        assert a.read_bytes() == b.read_bytes()

    def test_threshold_report_csv(self, tmp_path, capsys, corpus):
        out = tmp_path / "report.csv"
        code, _, err = run(capsys, "threshold", "--corpus", str(corpus), "--out", str(out),
                           "--threshold", "0.6", "--length", "128")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,tp,fp,tn,fn,max_overshoot"
        # overestimation: no false negatives ever
        assert lines[1].split(",")[4] == "0"

    def test_threshold_accepts_count_past_int64(self, tmp_path, capsys):
        base = Multiset({"hot": 2**63, "cold": 3})
        other = Multiset({"hot": 1, "warm": 2})
        manifest = write_corpus(tmp_path / "big", [("p0000", base, other)], seed=0, target_unique=2, string_length=4)
        out = tmp_path / "report.csv"
        code, _, err = run(capsys, "threshold", "--corpus", str(manifest), "--out", str(out))
        assert code == 0, err
        assert out.read_text().splitlines()[0] == "threshold,tp,fp,tn,fn,max_overshoot"

    def test_threshold_logs_failed_pairs(self, tmp_path, capsys, monkeypatch):
        ok = Multiset({"a": 2, "b": 1})
        reports = []
        for corpus in ([("ok", ok, ok)], [("bad", Multiset(), Multiset()), ("ok", ok, ok)]):
            monkeypatch.setattr(datasets, "load_corpus", lambda path, corpus=corpus: corpus)
            out = tmp_path / f"report{len(reports)}.csv"
            code, out_text, err = run(capsys, "threshold", "--corpus", "unused", "--out", str(out))
            assert code == 0 and out_text == ""
            reports.append((out.read_bytes(), err))
        (clean_csv, clean_err), (failed_csv, failed_err) = reports
        assert failed_csv == clean_csv
        assert "pairs failed" not in clean_err
        assert "1 of 2 pairs failed" in failed_err

    def test_grid_logs_failed_pairs(self, tmp_path, capsys, monkeypatch):
        ok = Multiset({"a": 2, "b": 1})
        grids = []
        for corpus in ([("ok", ok, ok)], [("ok", ok, ok), ("bad", Multiset(), Multiset())]):
            monkeypatch.setattr(datasets, "load_corpus", lambda path, corpus=corpus: corpus)
            out = tmp_path / f"grid{len(grids)}.csv"
            code, out_text, err = run(capsys, "grid", "--corpus", "unused", "--out", str(out),
                                      "--dims", "16,32", "--depths", "1,2")
            assert code == 0 and out_text == ""
            grids.append((out.read_bytes(), err))
        (clean_csv, clean_err), (failed_csv, failed_err) = grids
        assert failed_csv == clean_csv
        assert "pairs failed" not in clean_err
        assert "1 of 2 pairs failed (first: bad: Dice of two empty multisets is undefined)" in failed_err

    @pytest.mark.parametrize("argv", [["grid", "--dims", "4294967296"],
                                      ["grid", "--kind", "cms", "--depths", "4294967296"],
                                      ["threshold", "--length", "4294967296"]],
                             ids=["grid-dims", "grid-cms-depths", "threshold-length"])
    def test_size_past_header_field_is_usage_error(self, tmp_path, capsys, corpus, argv):
        # a size the uint32 header fields cannot carry is a usage error on every subcommand, before any corpus work
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, *argv, "--corpus", str(corpus), "--out", str(out))
        assert code == 64
        assert err.count("usage:") == 1 and "Traceback" not in err
        assert "must all be ints in [1, 4294967295]" in err.splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize("manifest, field", [
        ([], "'schema'"),
        ({"pairs": []}, "'profiles_file'"),
        ({"profiles_file": "profiles.tsv"}, "'pairs'"),
        ({"profiles_file": "profiles.tsv", "pairs": [{"a": "u1", "b": "u1"}]}, "'pair_id'"),
        ({"profiles_file": 7, "pairs": []}, "'profiles_file'"),
        ({"profiles_file": "profiles.tsv", "pairs": [{"pair_id": "p", "a": ["u1"], "b": "u1"}]}, "'a'"),
        ({"profiles_file": "profiles.tsv", "pairs": []}, "lists no pairs"),
        ({"profiles_file": "profiles.tsv", "pairs": [{"pair_id": "p", "a": "u1", "b": "u1"}], "multisets": []},
         "'multisets'"),
        ({"profiles_file": "profiles.tsv", "pairs": [{"pair_id": "p", "a": "u1", "b": "u1"}],
          "multisets": {"u1": {"cardinality": 1}}}, "entry 'u1' needs a int field 'distinct'"),
        ({"profiles_file": "profiles.tsv", "pairs": [{"pair_id": "p", "a": "u1", "b": "u1"}],
          "multisets": {"u9": {"distinct": 1, "cardinality": 1}}}, "entry 'u9' names no profile"),
    ], ids=["not-an-object", "no-profiles-file", "no-pairs", "no-pair-id", "profiles-file-int", "a-list",
            "empty-pairs", "multisets-list", "multisets-no-distinct", "multisets-unknown-profile"])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, manifest, field):
        write_profiles(tmp_path / "profiles.tsv", {"u1": Multiset({"s": 1})})
        if isinstance(manifest, dict):
            manifest = {"schema": datasets.MANIFEST_SCHEMA, **manifest}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, "grid", "--corpus", str(path), "--out", str(tmp_path / "g.csv"))
        assert code == 1
        assert err.startswith("sketchsim: error:") and field in err and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["grid", "threshold"])
    def test_repeated_pair_id_is_data_error(self, tmp_path, capsys, command):
        write_profiles(tmp_path / "profiles.tsv", {"u1": Multiset({"s": 1}), "u2": Multiset({"s": 2})})
        pairs = [{"pair_id": "x", "a": "u1", "b": "u2"}, {"pair_id": "y", "a": "u1", "b": "u1"},
                 {"pair_id": "x", "a": "u2", "b": "u2"}]
        path = tmp_path / "manifest.json"
        manifest = {"schema": datasets.MANIFEST_SCHEMA, "profiles_file": "profiles.tsv", "pairs": pairs}
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, command, "--corpus", str(path), "--out", str(tmp_path / "out.csv"))
        assert code == 1
        assert err == "sketchsim: error: manifest pair 2 repeats pair_id 'x'\n"
        assert not (tmp_path / "out.csv").exists()

    def test_deeply_nested_manifest_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("[" * 200_000)
        code, _, err = run(capsys, "grid", "--corpus", str(path), "--out", str(tmp_path / "g.csv"))
        assert code == 1
        assert err == f"sketchsim: error: corpus manifest {path} nests too deeply to parse\n"

    @pytest.mark.parametrize("damage, command", [("lost-last-line", "grid"), ("count-edited", "threshold")])
    def test_profiles_unlike_the_manifest_record_are_data_error(self, tmp_path, capsys, corpus, damage, command):
        manifest = json.loads(corpus.read_text())
        profiles_file = corpus.parent / "profiles.tsv"
        lines = profiles_file.read_text().splitlines(keepends=True)
        if damage == "lost-last-line":
            user, _, _ = lines.pop().split("\t")
            field, held = "distinct", manifest["multisets"][user]["distinct"] - 1
        else:
            user, song, count = lines[0].rstrip("\n").split("\t")
            lines[0] = f"{user}\t{song}\t{int(count) + 1}\n"
            field, held = "cardinality", manifest["multisets"][user]["cardinality"] + 1
        profiles_file.write_text("".join(lines))
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, command, "--corpus", str(corpus), "--out", str(out))
        assert code == 1
        recorded = manifest["multisets"][user][field]
        assert err == f"sketchsim: error: manifest multisets entry {user!r} records {field} {recorded}, " \
                      f"but the profile holds {held}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value, field, expected", [
        ("[" * 500 + "]" * 500, "schema", "needs a str field 'schema', got [[...]]"),
        # past the JSON parser's depth: refused before any field is read
        ("[" * 1000 + "]" * 1000, "schema", "nests too deeply to parse"),
        (json.dumps({f"p{i:05d}": {"pair_id": f"p{i:05d}", "a": "u1", "b": "u1"} for i in range(10_000)}), "pairs",
         "needs a list field 'pairs', got {'p00000': {...}, 'p00001': {...}, ...}"),
    ], ids=["schema-500-deep", "schema-1000-deep", "pairs-10000-entry-object"])
    def test_wrong_typed_field_is_one_short_line(self, tmp_path, capsys, value, field, expected):
        write_profiles(tmp_path / "profiles.tsv", {"u1": Multiset({"s": 1})})
        fields = {"schema": json.dumps(datasets.MANIFEST_SCHEMA), "profiles_file": '"profiles.tsv"', field: value}
        path = tmp_path / "manifest.json"
        path.write_text("{" + ", ".join(f'"{name}": {text}' for name, text in fields.items()) + "}")
        code, _, err = run(capsys, "grid", "--corpus", str(path), "--out", str(tmp_path / "g.csv"))
        assert code == 1
        assert err.startswith("sketchsim: error: corpus manifest ")
        assert len(err.splitlines()) == 1 and len(err) < 200, err
        assert err.rstrip("\n").endswith(expected)

    def test_out_of_memory_is_data_error(self, tmp_path, capsys, corpus, monkeypatch):
        # numpy's wording for `grid --dims 2000000000`, raised here without allocating
        size = "Unable to allocate 7.29 TiB for an array with shape (1002, 2000000000) and data type uint32"
        for error, line in [(MemoryError, "sketchsim: error: out of memory"),
                            (MemoryError(size), f"sketchsim: error: out of memory: {size}")]:
            def run_grid(*args):
                raise error
            monkeypatch.setattr(experiments, "run_grid", run_grid)
            out = tmp_path / "grid.csv"
            code, _, err = run(capsys, "grid", "--corpus", str(corpus), "--out", str(out))
            assert code == 1
            assert err.splitlines()[-1] == line
            assert err.count("sketchsim:") == 1 and "Traceback" not in err
            assert not out.exists()

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "grid", "--corpus", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "g.csv"))
        assert code == 1


class TestUsage:
    def test_readme_cli_examples_parse(self):
        # every `sketchsim ...` line of the README's CLI block, continuations joined and comments dropped
        block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
        commands = [argv[1:] for argv in commands if argv[:1] == ["sketchsim"]]
        assert len(commands) == 8
        for argv in commands:
            assert build_parser().parse_args(argv).command == argv[0]

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 64

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["gen", "--nope"]) == 64

    def test_bad_threshold_is_usage_error(self, capsys, tmp_path):
        code = main(["threshold", "--corpus", "x", "--out", str(tmp_path / "t.csv"), "--threshold", "1.5"])
        assert code == 64

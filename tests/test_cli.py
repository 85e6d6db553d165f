import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lazforge.verify
from lazforge import SequenceSet, make_hmatrix
from lazforge.cli import main

from helpers import set_file_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenVerifyPipeline:
    def test_reference_pipeline(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code, _, _ = run(
            capsys, "gen", "--n", "7", "--k", "7", "--a2", "1", "--a1", "0",
            "--h", "legendre", "-o", str(out),
        )
        assert code == 0
        assert out.exists() and (tmp_path / "s.meta.json").exists()

        meta = json.loads((tmp_path / "s.meta.json").read_text())
        assert meta["periodic"]["theta"] == 7.0
        assert meta["aperiodic"]["theta"] == 13.0

        code, stdout, _ = run(
            capsys, "verify", "--set", str(out), "--meta", str(tmp_path / "s.meta.json")
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["all_pass"] and report["cyclically_distinct"]
        assert len(report["certificates"]) == 2

        # the meta path defaults to the sidecar
        code, stdout, _ = run(capsys, "verify", "--set", str(out))
        assert code == 0
        assert json.loads(stdout)["all_pass"]

    def test_precondition_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--n", "9", "--k", "7", "-o", str(tmp_path / "x.json")
        )
        assert code == 3
        assert "codomain" in err

    def test_usage_exit_code(self, capsys):
        assert run(capsys, "gen", "--bogus")[0] == 2
        assert run(capsys, "nosuch")[0] == 2

    def test_failed_claim_exit_code(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "gen", "--n", "5", "--k", "5", "-o", str(out))
        meta_path = tmp_path / "s.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["periodic"]["theta"] = 1.0  # impossible claim
        meta_path.write_text(json.dumps(meta))
        code, stdout, _ = run(
            capsys, "verify", "--set", str(out), "--meta", str(meta_path),
            "--kind", "periodic",
        )
        assert code == 1
        assert not json.loads(stdout)["all_pass"]

    def test_claimed_theta_echoed_at_9_digits(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "gen", "--n", "5", "--k", "5", "-o", str(out))
        meta_path = tmp_path / "s.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["periodic"]["theta"] = 7.123456789123  # 13 significant digits
        meta_path.write_text(json.dumps(meta))
        code, stdout, _ = run(
            capsys, "verify", "--set", str(out), "--meta", str(meta_path),
            "--kind", "periodic",
        )
        assert code == 0
        cert = json.loads(stdout)["certificates"][0]
        assert cert["claimed"]["theta"] == cert["bound"]["theta"] == 7.12345679
        assert "7.123456789123" not in stdout

    def test_float_phase_pipeline(self, tmp_path, capsys):
        # Björck companions carry non-rational phases; the set file switches
        # to float mode and certification still holds
        out = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "gen", "--n", "7", "--k", "7", "--h", "bjorck", "-o", str(out)
        )
        assert code == 0
        assert json.loads(out.read_text())["phase_mode"] == "float"
        code, stdout, _ = run(
            capsys, "verify", "--set", str(out), "--meta", str(tmp_path / "b.meta.json")
        )
        assert code == 0
        assert json.loads(stdout)["all_pass"]

    def test_power_map_pipeline(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code, _, _ = run(capsys, "gen", "--power-map", "5", "2", "-o", str(out))
        assert code == 0
        meta = json.loads((tmp_path / "p.meta.json").read_text())
        assert meta["periodic"]["set_size"] == 4
        assert meta["periodic"]["length"] == 20
        code, stdout, _ = run(
            capsys, "verify", "--set", str(out), "--meta",
            str(tmp_path / "p.meta.json"),
        )
        assert code == 0


class TestTables:
    def test_single_table(self, capsys):
        code, stdout, _ = run(capsys, "tables", "--id", "1")
        assert code == 0
        rows = [line for line in stdout.splitlines() if "computed=" in line]
        assert len(rows) == 9
        assert all(line.endswith("pass") for line in rows)

    def test_all_tables(self, capsys):
        code, stdout, _ = run(capsys, "tables", "--id", "1,2,4,5")
        assert code == 0
        rows = [line for line in stdout.splitlines() if "computed=" in line]
        assert len(rows) == 38


class TestHgen:
    def test_generate_and_verify(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        code, _, _ = run(capsys, "hgen", "--kind", "dft", "--n", "9", "-o", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "hgen", "verify", str(out))
        assert code == 0
        assert json.loads(stdout)["pass"]

    def test_verify_catches_bad_matrix(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        run(capsys, "hgen", "--kind", "bjorck", "--n", "5", "-o", str(out))
        code, stdout, _ = run(capsys, "hgen", "verify", str(out))
        assert code == 1
        assert not json.loads(stdout)["pass"]

    def test_bad_positional(self, capsys):
        assert run(capsys, "hgen", "frobnicate")[0] == 2

    @pytest.mark.parametrize("order", ["0", "1"])
    def test_mseq_order_in_its_own_unit(self, capsys, order):
        assert run(capsys, "hgen", "--kind", "mseq", "--n", order) == (
            3, "", "error: mseq order must be 2^m - 1 with m >= 2\n",
        )

    def test_verify_one_by_one(self, tmp_path, capsys):
        # no pair to scan: magnitudes 0, not negative
        path = tmp_path / "h.json"
        path.write_text(json.dumps(
            {"length": 1, "size": 1, "phase_mode": "rational", "members": [[[0, 1]]]}
        ))
        code, stdout, _ = run(capsys, "hgen", "verify", str(path))
        assert code == 0
        assert '"max_offdiag_inner": 0.0' in stdout
        assert json.loads(stdout)["max_modulated"] == 0.0

    @pytest.mark.parametrize("kind, n", [("dft", 9), ("bjorck", 7)])
    def test_file_bytes_equal_stdout(self, tmp_path, capsys, kind, n):
        # one rational and one float family; the entry-by-entry text is the reference
        out = tmp_path / "h.json"
        assert run(capsys, "hgen", "--kind", kind, "--n", str(n), "-o", str(out)) == (0, "", "")
        code, stdout, _ = run(capsys, "hgen", "--kind", kind, "--n", str(n))
        assert code == 0 and out.read_bytes() == stdout.encode()
        assert stdout == set_file_text(make_hmatrix(kind, n))


class TestVerifyWork:
    @staticmethod
    def write_set(tmp_path, capsys, shifted):
        """A 7x77 interleaved set, or one that is not: member 1 = member 0
        shifted by 3."""
        path = tmp_path / "s.json"
        assert run(capsys, "gen", "--n", "7", "--k", "11", "--h", "mseq", "-o", str(path))[0] == 0
        if shifted:
            d = json.loads(path.read_text())
            d["members"][1] = d["members"][0][3:] + d["members"][0][:3]
            path.write_text(json.dumps(d))
        return path

    @pytest.mark.parametrize("shifted", [False, True])
    def test_both_kinds_factor_the_set_once(self, tmp_path, capsys, monkeypatch, shifted):
        path = self.write_set(tmp_path, capsys, shifted)
        calls = []
        factor = lazforge.verify.factor_interleaved
        monkeypatch.setattr("lazforge.verify.factor_interleaved",
                            lambda s: calls.append(s) or factor(s))
        assert run(capsys, "verify", "--set", str(path), "--kind", "both")[0] == int(shifted)
        assert len(calls) == 1

    @pytest.mark.parametrize("shifted", [False, True])
    def test_distinctness_path_follows_the_set(self, tmp_path, capsys, monkeypatch, shifted):
        # the interleaved set is read from the closed form, the shifted one by
        # the FFT path, once for both kinds
        path = self.write_set(tmp_path, capsys, shifted)
        calls = []
        spectral = lazforge.verify._spectral_candidates
        monkeypatch.setattr("lazforge.verify._spectral_candidates",
                            lambda s: calls.append(s) or spectral(s))
        code, out, _ = run(capsys, "verify", "--set", str(path), "--kind", "both")
        assert (code, len(calls)) == (int(shifted), int(shifted))
        assert json.loads(out)["cyclically_distinct"] is not shifted


class TestAfCsv:
    def test_header_and_shape(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "gen", "--n", "5", "--k", "5", "-o", str(out))
        code, stdout, _ = run(
            capsys, "af", "--set", str(out), "--pair", "0", "1",
            "--kind", "periodic", "--zx", "3", "--zy", "4",
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "tau,v,re,im,mag"
        assert len(lines) == 1 + 5 * 7  # (2*3-1) x (2*4-1)

    def test_reads_two_rows_without_the_matrix(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "s.json"
        run(capsys, "gen", "--n", "5", "--k", "5", "-o", str(out))
        argv = ("af", "--set", str(out), "--pair", "3", "1", "--kind", "aperiodic",
                "--zx", "3", "--zy", "4")
        expected = run(capsys, *argv)
        monkeypatch.setattr(SequenceSet, "matrix", property(lambda s: pytest.fail("matrix")))
        assert run(capsys, *argv) == expected and expected[0] == 0

    def test_pair_bounds_checked(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run(capsys, "gen", "--n", "5", "--k", "5", "-o", str(out))
        code, _, err = run(
            capsys, "af", "--set", str(out), "--pair", "0", "9",
            "--kind", "periodic", "--zx", "2", "--zy", "2",
        )
        assert code == 3 and "range" in err


class TestBoundsCommand:
    def test_json_report(self, capsys):
        code, stdout, _ = run(
            capsys, "bounds", "--m", "7", "--len", "77", "--zx", "7", "--zy", "5",
            "--theta", "11", "--kind", "periodic",
        )
        assert code == 0
        rep = json.loads(stdout)
        assert rep["rho"] == pytest.approx(1.498298, abs=1e-5)
        assert rep["regime"] == "N<K<2N-1"


class TestLpnfCommand:
    def test_measure_and_csv(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        code, stdout, _ = run(
            capsys, "lpnf", "--n", "5", "--k", "8", "--diff-csv", str(csv)
        )
        assert code == 0
        assert "P_f = 1" in stdout
        lines = csv.read_text().splitlines()
        assert lines[0] == "a,x,diff"
        assert len(lines) == 1 + 4 * 5

    @pytest.mark.parametrize("argv, line", [
        ("--n 5 --k 8", "P_f = 1 over zone (5,4); witness a=-4 b=-3"),
        ("--n 5 --k 8 --zx 5 --zy 8", "P_f = 2 over zone (5,8); witness a=-3 b=-4"),
        ("--power-map 7 3 --zx 6 --zy 1", "P_f = 0 over zone (6,1); no witness"),  # b = 0 unsolved
        ("--n 5 --k 5 --zx 1 --zy 3", "P_f = 0 over zone (1,3); no witness"),  # no nonzero delay
    ], ids=["quad", "quad-wide", "power-map-count-0", "zx-1"])
    def test_witness_line(self, capsys, argv, line):
        assert run(capsys, "lpnf", *argv.split()) == (0, line + "\n", "")


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run(
                capsys, "gen", "--n", "7", "--k", "11", "--h", "mseq", "-o", str(out)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        ma = (tmp_path / "a.meta.json").read_bytes()
        mb = (tmp_path / "b.meta.json").read_bytes()
        assert ma == mb


class TestFailClosedLoading:
    """Unreadable or non-finite inputs, unwritable outputs and requests too
    large for memory are precondition errors (exit 3): never a pass, and
    never a traceback that reads as a failed verification."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        good = tmp_path / "s.json"
        assert run(capsys, "gen", "--n", "7", "--k", "7", "--h", "legendre", "-o", str(good))[0] == 0
        nan = tmp_path / "nan.json"
        nan.write_text(json.dumps(
            {"length": 49, "size": 7, "phase_mode": "float",
             "members": [[float("nan")] * 49 for _ in range(7)]}
        ))
        square_nan = tmp_path / "square_nan.json"
        square_nan.write_text(json.dumps(
            {"length": 7, "size": 7, "phase_mode": "float",
             "members": [[float("nan")] * 7 for _ in range(7)]}
        ))
        text = good.read_text()
        truncated = tmp_path / "truncated.json"
        truncated.write_text(text[: len(text) // 2])
        return {"good": good, "meta": tmp_path / "s.meta.json", "nan": nan,
                "square_nan": square_nan, "truncated": truncated,
                "non_square": good}

    @pytest.mark.parametrize("bad", ["nan", "truncated"])
    def test_verify_refuses_bad_set(self, files, capsys, bad):
        code, stdout, err = run(
            capsys, "verify", "--set", str(files[bad]), "--meta", str(files["meta"])
        )
        assert (code, stdout) == (3, "") and err.startswith("error:")

    def test_verify_refuses_truncated_meta(self, files, capsys):
        code, _, err = run(
            capsys, "verify", "--set", str(files["good"]), "--meta", str(files["truncated"])
        )
        assert code == 3 and err.startswith("error:")

    @pytest.mark.parametrize("theta", ["Infinity", "NaN", "1e400"])
    def test_verify_refuses_non_finite_theta(self, files, capsys, tmp_path, theta):
        # Python's json reads NaN and Infinity, and 1e400 overflows to inf
        meta = json.loads(files["meta"].read_text())
        path = tmp_path / "inf.meta.json"
        text = json.dumps(meta).replace('"theta": 7.0', f'"theta": {theta}')
        assert f'"theta": {theta}' in text
        path.write_text(text)
        code, stdout, err = run(
            capsys, "verify", "--set", str(files["good"]), "--meta", str(path)
        )
        assert (code, stdout) == (3, "") and err.startswith("error:")

    @pytest.mark.parametrize("field,value", [
        ("z_x", 2.5), ("z_x", True), ("set_size", 7.0), ("theta", True),
    ])
    def test_verify_refuses_non_integer_meta_field(self, files, capsys, tmp_path, field, value):
        # JSON integers only for sizes and half-widths; a bool is not a number
        meta = json.loads(files["meta"].read_text())
        for kind in ("periodic", "aperiodic"):
            meta[kind][field] = value
        path = tmp_path / "typed.meta.json"
        path.write_text(json.dumps(meta))
        code, stdout, err = run(
            capsys, "verify", "--set", str(files["good"]), "--meta", str(path)
        )
        assert (code, stdout) == (3, "") and err.startswith("error:")

    @pytest.mark.parametrize("meta", [
        {"periodic": {}, "aperiodic": {}},
        {"periodic": {"set_size": 7, "length": 49, "z_x": 7, "z_y": 7, "theta": 7.0}},
        {"aperiodic": None},
        {},
        [1, 2],
    ])
    def test_verify_refuses_meta_missing_a_key(self, files, capsys, tmp_path, meta):
        path = tmp_path / "partial.meta.json"
        path.write_text(json.dumps(meta))
        code, stdout, err = run(
            capsys, "verify", "--set", str(files["good"]), "--meta", str(path)
        )
        assert (code, stdout) == (3, "") and err.startswith("error:")

    @pytest.mark.parametrize("kind, slot", [
        ("both", "periodic"), ("both", "aperiodic"),
        ("periodic", "periodic"), ("aperiodic", "aperiodic"),
    ])
    def test_verify_refuses_meta_entry_of_the_other_kind(self, files, capsys, tmp_path,
                                                          kind, slot):
        # a slot holding a copy of the other kind's entry: certifying that
        # copy would report a pass for a claim that was never checked
        meta = json.loads(files["meta"].read_text())
        meta[slot] = meta["aperiodic" if slot == "periodic" else "periodic"]
        path = tmp_path / "copied.meta.json"
        path.write_text(json.dumps(meta))
        code, stdout, err = run(
            capsys, "verify", "--set", str(files["good"]), "--meta", str(path), "--kind", kind
        )
        assert (code, stdout) == (3, "") and err.startswith("error:")
        assert f"meta entry '{slot}' claims kind" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--set", "{missing}"],
        ["verify", "--set", "{good}", "--meta", "{missing}"],
        ["af", "--set", "{missing}", "--kind", "periodic", "--zx", "2", "--zy", "2"],
        ["hgen", "verify", "{missing}"],
        ["verify", "--set", "{bare}"],
    ])
    def test_missing_file_is_refused(self, files, capsys, tmp_path, argv):
        bare = tmp_path / "bare.json"  # a good set without its sidecar meta file
        bare.write_bytes(files["good"].read_bytes())
        paths = {"missing": tmp_path / "nosuch.json", "good": files["good"], "bare": bare}
        code, stdout, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, stdout) == (3, "") and err.startswith("error:")
        assert "nosuch.json" in err or "bare.meta.json" in err

    @pytest.mark.parametrize("bad", ["square_nan", "truncated", "non_square"])
    def test_hgen_verify_refuses_bad_matrix(self, files, capsys, bad):
        assert run(capsys, "hgen", "verify", str(files[bad]))[0] == 3

    @pytest.mark.parametrize("argv", [
        ["verify", "--set", "{deep}", "--meta", "{meta}"],
        ["verify", "--set", "{good}", "--meta", "{deep}"],
        ["hgen", "verify", "{deep}"],
    ])
    def test_deeply_nested_json_is_refused(self, files, capsys, tmp_path, argv):
        # deeper than json's decoder recurses: a RecursionError inside it
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        paths = {"deep": deep, "good": files["good"], "meta": files["meta"]}
        code, stdout, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, stdout) == (3, "") and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["verify", "--set", "{long}", "--meta", "{meta}"],
        ["verify", "--set", "{good}", "--meta", "{long}"],
        ["hgen", "verify", "{long}"],
    ])
    def test_integer_past_the_conversion_limit_is_refused(self, files, capsys, tmp_path, argv):
        # json's int() raises a plain ValueError beyond 4300 digits
        long = tmp_path / "long.json"
        long.write_text('{"length": ' + "1" * 5000 + "}")
        paths = {"long": long, "good": files["good"], "meta": files["meta"]}
        code, stdout, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, stdout) == (3, "") and err.startswith("error:")

    @pytest.mark.parametrize("argv,over", [
        (["verify", "--set", "{good}", "--meta", "{meta}"], "good"),
        (["verify", "--set", "{good}", "--meta", "{padded}"], "padded"),
        (["hgen", "verify", "{companion}"], "companion"),
    ])
    def test_oversize_file_is_refused(self, files, capsys, tmp_path, monkeypatch, argv, over):
        # the cap lowered to one byte below the file named by over, every
        # other file of the command being smaller; at its size the file loads
        padded = tmp_path / "padded.meta.json"  # the meta file, longer than the set
        padded.write_text(files["meta"].read_text() + " " * files["good"].stat().st_size)
        companion = tmp_path / "h.json"
        assert run(capsys, "hgen", "--kind", "legendre", "--n", "7", "-o", str(companion))[0] == 0
        paths = {"good": files["good"], "meta": files["meta"], "padded": padded,
                 "companion": companion}
        argv = [a.format(**paths) for a in argv]
        size = paths[over].stat().st_size
        monkeypatch.setattr("lazforge.seqcore.MAX_FILE_BYTES", size - 1)
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (3, "") and err.startswith("error:")
        assert str(paths[over]) in err and f"{size} bytes" in err
        monkeypatch.setattr("lazforge.seqcore.MAX_FILE_BYTES", size)
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "--set", "{extra}", "--meta", "{meta}"],
        ["af", "--set", "{extra}", "--kind", "periodic", "--zx", "2", "--zy", "2"],
        ["hgen", "verify", "{extra}"],
    ], ids=["verify", "af", "hgen-verify"])
    def test_set_file_key_outside_the_schema_is_refused(self, files, capsys, tmp_path, argv):
        # a 3x3 DFT set that loads without the key; with it, the reader would
        # otherwise ignore the key and keep the denominator of the members
        d = json.loads(set_file_text(make_hmatrix("dft", 3)))
        d["denominator"] = 7
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps(d))
        code, stdout, err = run(capsys, *(a.format(extra=extra, meta=files["meta"]) for a in argv))
        assert (code, stdout) == (3, "") and err.startswith("error:") and "'denominator'" in err

    @pytest.mark.parametrize("bad", ["nan", "truncated"])
    def test_af_refuses_bad_set(self, files, capsys, bad):
        code, _, _ = run(
            capsys, "af", "--set", str(files[bad]), "--pair", "0", "1",
            "--kind", "periodic", "--zx", "2", "--zy", "2",
        )
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "7", "--k", "7", "-o", "{out}"],
        ["hgen", "--kind", "dft", "--n", "7", "-o", "{out}"],
        ["lpnf", "--n", "5", "--k", "8", "--zx", "5", "--zy", "4", "--diff-csv", "{out}"],
        ["af", "--set", "{good}", "--kind", "periodic", "--zx", "2", "--zy", "2", "-o", "{out}"],
    ], ids=["gen", "hgen", "lpnf", "af"])
    def test_unwritable_output_is_refused(self, files, capsys, tmp_path, argv):
        out = tmp_path / "nosuchdir" / "out"
        code, _, err = run(capsys, *(a.format(out=out, good=files["good"]) for a in argv))
        assert code == 3 and err.startswith(f"error: cannot write {out}")

    @pytest.mark.parametrize("message,err", [
        ("Unable to allocate 596. GiB for an array", "error: Unable to allocate 596. GiB for an array\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_refused(self, capsys, monkeypatch, message, err):
        # an over-large request runs out of memory in numpy; raised here
        # instead of allocated
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr("lazforge.cli.make_hmatrix", exhausted)
        assert run(capsys, "hgen", "--kind", "dft", "--n", "200000") == (3, "", err)


class TestNumericArguments:
    """Out-of-range or non-finite numbers are precondition errors (exit 3) and
    malformed lists usage errors (exit 2): never a pass, never a traceback."""

    @pytest.fixture(scope="class")
    def set_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("numeric") / "s.json"
        assert main(["gen", "--n", "5", "--k", "5", "-o", str(path)]) == 0
        return path

    @pytest.mark.parametrize("argv,code", [
        ("bounds --m 7 --len 0 --zx 7 --zy 7 --theta 7 --kind periodic", 3),
        ("bounds --m 7 --len -5 --zx 7 --zy 7 --theta 7 --kind aperiodic", 3),
        ("bounds --m 7 --len 49 --zx 7 --zy 7 --theta nan --kind periodic", 3),
        ("bounds --m 7 --len 49 --zx 7 --zy 7 --theta inf --kind aperiodic", 3),
        ("bounds --m 7 --len 49 --zx 7 --zy 7 --theta 0 --kind periodic", 3),
        ("verify --set {set} --empirical-budget nan", 3),
        ("verify --set {set} --empirical-budget inf", 3),
        ("tables --id 1,x", 2),
        ("verify --set {set} --threads 1", 2),
    ])
    def test_exit_code(self, set_path, capsys, argv, code):
        got, stdout, err = run(capsys, *argv.format(set=set_path).split())
        assert (got, stdout) == (code, "")
        assert err.startswith("error:" if code == 3 else "usage:")


class TestIgnoredFlags:
    """A flag the command would ignore is a usage error (exit 2): a message
    on stderr, nothing on stdout and no file written."""

    @pytest.mark.parametrize("argv", [
        "lpnf --n 5 --k 8 --zx 2 --diff-csv {dir}/d.csv",
        "lpnf --n 5 --k 8 --zy 2 --diff-csv {dir}/d.csv",
        "hgen verify {dir}/h.json --kind dft",
        "hgen verify {dir}/h.json --n 7",
        "hgen verify {dir}/h.json -o {dir}/report.json",
        "gen --power-map 5 2 --n 9 --k 9 -o {dir}/s.json",
        "gen --power-map 5 2 --k 9 -o {dir}/s.json",
        "lpnf --power-map 5 2 --n 4",
        "gen --power-map 5 2 --a2 3 --a1 2 -o {dir}/s.json",
        "lpnf --power-map 5 2 --a2 3",
    ], ids=["lpnf-zx", "lpnf-zy", "hgen-verify-kind", "hgen-verify-n", "hgen-verify-o",
            "gen-power-map-n-k", "gen-power-map-k", "lpnf-power-map-n",
            "gen-power-map-a2-a1", "lpnf-power-map-a2"])
    def test_usage_error(self, tmp_path, capsys, argv):
        assert run(capsys, "hgen", "--kind", "dft", "--n", "7", "-o", str(tmp_path / "h.json"))[0] == 0
        code, stdout, err = run(capsys, *argv.format(dir=tmp_path).split())
        assert (code, stdout) == (2, "") and err.startswith("usage:")
        assert [p.name for p in tmp_path.iterdir()] == ["h.json"]


# JSON leaves of every type the loaders may meet, huge integers included
LEAVES = st.one_of(
    st.integers(-10, 100),
    st.integers(2**63 - 2, 2**200) | st.integers(-(2**200), -(2**63) - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(-3, 50), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 50), max_size=2),
)


def _mutate(doc, data):
    """A copy of a JSON document with one leaf replaced, picked by descending
    from the root through uniformly drawn keys or indices."""
    node = doc = copy.deepcopy(doc)
    while isinstance(node, (dict, list)) and node:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    parent[key] = data.draw(LEAVES)
    return doc


class TestCliFuzz:
    """`verify` and `hgen verify` on set, meta and companion files with one
    or two leaves mutated: exit 0 or 1 with a JSON report, or exit 3 with an
    error message; never a traceback."""

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        """{(family, part): JSON document} for a rational and a float set
        with their meta files, and a rational and a float companion."""
        root = tmp_path_factory.mktemp("fuzz")
        docs = {}
        for family, argv in (("rational", ["--n", "5", "--k", "5"]),
                             ("float", ["--n", "7", "--k", "7", "--h", "bjorck"])):
            path = root / f"{family}.json"
            assert main(["gen", *argv, "-o", str(path)]) == 0
            docs[family, "set"] = json.loads(path.read_text())
            docs[family, "meta"] = json.loads(path.with_suffix(".meta.json").read_text())
        for kind, n in (("dft", "5"), ("bjorck", "7")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["hgen", "--kind", kind, "--n", n]) == 0
            docs[kind, "companion"] = json.loads(out.getvalue())
        return docs

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_exception_escapes(self, sources, data):
        family, part = data.draw(st.sampled_from(sorted(sources)))
        docs = {p: doc for (f, p), doc in sources.items() if f == family}
        for _ in range(data.draw(st.integers(1, 2))):
            docs[part] = _mutate(docs[part], data)
        with tempfile.TemporaryDirectory() as tmp:
            paths = {p: Path(tmp) / f"{p}.json" for p in docs}
            for p, doc in docs.items():
                paths[p].write_text(json.dumps(doc))
            if part == "companion":
                argv = ["hgen", "verify", str(paths["companion"])]
            else:
                argv = ["verify", "--set", str(paths["set"]), "--meta", str(paths["meta"]),
                        "--kind", data.draw(st.sampled_from(["both", "periodic", "aperiodic"]))]
                budget = data.draw(st.sampled_from([None, "0", "5", "7.5", "1e9"]))
                if budget is not None:
                    argv += ["--empirical-budget", budget]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 3), (argv, code)
        if code == 3:
            assert out.getvalue() == "" and err.getvalue().startswith("error:")
        else:
            json.loads(out.getvalue())

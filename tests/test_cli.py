from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zzpers
from zzpers import fzz
from zzpers.cli import bench_run, main
from zzpers.dpc import Trajectories, vineyard
from zzpers.filtration import ZigzagFiltration
from zzpers.planner import random_filtration
from zzpers.rep_updates import PersistenceState

from test_filtration import CORRUPTIONS, POOL, corrupt

TRI = "i 0\ni 1\ni 0 1\nd 0 1\nd 1\nd 0\n"

POINTS = """t,id,x,y
0,0,0.0,0.0
0,1,3.0,0.0
0,2,0.0,4.0
1,0,1.0,1.0
1,1,2.5,0.5
1,2,1.0,2.0
"""

# point 1 has two samples at t = 0
DUPLICATE_ROW = "t,id,x,y\n0,0,0.0,0.0\n0,1,3.0,0.0\n0,1,9.0,9.0\n1,0,1.0,1.0\n1,1,2.5,0.5\n"


def cli_env():
    """The environment of a zzpers.cli child process that imports this zzpers."""
    src = str(Path(zzpers.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBarcode:
    def test_triangle(self, tmp_path, capsys):
        path = tmp_path / "tri.zz"
        path.write_text(TRI)
        code, out, _ = run(capsys, "barcode", str(path))
        assert code == 0
        assert out == "0 1 5\n0 2 2\n0 4 4\n"

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.zz"
        path.write_text("# nothing\n")
        code, out, _ = run(capsys, "barcode", str(path))
        assert code == 0 and out == ""

    def test_malformed_line_reports_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.zz"
        path.write_text("i 0\nq 1\n")
        code, _, err = run(capsys, "barcode", str(path))
        assert code == 2 and "line 2" in err

    def test_invalid_filtration_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.zz"
        path.write_text("i 0 1\n")
        code, _, err = run(capsys, "barcode", str(path))
        assert code == 2 and "missing faces" in err
        bad = ZigzagFiltration.from_text("i 0 1\n").validate()
        assert err == "".join(f"error: {msg}\n" for msg in bad)

    # a step id cannot be written in the text format
    @pytest.mark.parametrize("kind", sorted(set(CORRUPTIONS) - {"duplicate step id"}))
    def test_each_fault_is_printed_in_validates_words(self, kind, tmp_path, capsys):
        rng = random.Random(kind)
        path, script = tmp_path / "bad.zz", tmp_path / "script.txt"
        printed = 0
        for _ in range(20):
            f = random_filtration(rng, POOL, dim_cap=2, max_simplices=10, max_length=24)
            bad = corrupt(f, kind, rng)
            if bad is f:
                continue
            path.write_text(bad.to_text())
            script.write_text("")
            for argv in (["barcode", str(path)],
                         *(["update", str(path), str(script), "--engine", engine]
                           for engine in ("rep", "fzz", "both"))):
                code, out, err = run(capsys, *argv)
                assert code == 2 and out == ""
                assert err == "".join(f"error: {msg}\n" for msg in bad.validate())
            printed += 1
        assert printed >= 5

    def test_the_oracle_alone_checks_a_valid_file(self, tmp_path, capsys, monkeypatch):
        calls = []
        validate = ZigzagFiltration.validate
        monkeypatch.setattr(ZigzagFiltration, "validate",
                            lambda f: calls.append(1) or validate(f))
        path = tmp_path / "tri.zz"
        path.write_text(TRI)
        code, out, _ = run(capsys, "barcode", str(path))
        assert code == 0 and out == "0 1 5\n0 2 2\n0 4 4\n"
        assert calls == []


class TestUpdate:
    @pytest.mark.parametrize("engine, checks", [("rep", 1), ("fzz", 1), ("both", 2)])
    def test_each_engine_checks_a_valid_file_once(self, engine, checks, tmp_path, capsys,
                                                  monkeypatch):
        calls = []
        validate = ZigzagFiltration.validate
        monkeypatch.setattr(ZigzagFiltration, "validate",
                            lambda f: calls.append(1) or validate(f))
        path, script = tmp_path / "tri.zz", tmp_path / "script.txt"
        path.write_text(TRI)
        script.write_text("fs 1\nbs 5\nie 2 0 1\nic 3\n")
        code, out, _ = run(capsys, "update", str(path), str(script), "--engine", engine)
        assert code == 0 and out.endswith("barcode\n0 1 5\n0 2 2\n0 4 4\n")
        assert len(calls) == checks

    def test_round_trip_script(self, tmp_path, capsys):
        from zzpers.planner import script_to_text, transform
        tri = ZigzagFiltration.from_text(TRI)
        script = transform(tri, tri)
        fpath = tmp_path / "tri.zz"
        spath = tmp_path / "script.zz"
        fpath.write_text(TRI)
        spath.write_text(script_to_text(script))
        code, out, _ = run(capsys, "update", str(fpath), str(spath),
                           "--engine", "both", "--check")
        assert code == 0
        assert out.rstrip().splitlines()[-3:] == ["0 1 5", "0 2 2", "0 4 4"]

    @pytest.mark.parametrize("engine", ["rep", "both"])
    def test_check_certifies_the_rep_engine(self, engine, tmp_path, capsys, monkeypatch):
        # a stale position index leaves every barcode right: only the
        # certificate sees it (no ic builds the start state)
        from zzpers import rep_updates
        commit = rep_updates._commit

        def stale(state, op, *args):
            vines = commit(state, op, *args)
            if op == "ic":
                state.over[1].add(99)
            return vines

        monkeypatch.setattr(rep_updates, "_commit", stale)
        path, script = tmp_path / "tri.zz", tmp_path / "script.txt"
        path.write_text(TRI)
        script.write_text("fs 1\nbs 5\nie 2 0 1\nic 3\n")
        code, out, err = run(capsys, "update", str(path), str(script), "--engine", engine)
        assert code == 0 and out.endswith("barcode\n0 1 5\n0 2 2\n0 4 4\n")
        code, out, err = run(capsys, "update", str(path), str(script), "--engine", engine,
                             "--check")
        assert code == 4 and "op 3 ic 3\n" in out and "barcode" not in out
        assert err == ("error: rep engine certificate after op 3: "
                       "over[1] names bar 99, which does not span it\n")

    def test_fzz_engine_rejects_outward(self, tmp_path, capsys):
        fpath = tmp_path / "tri.zz"
        spath = tmp_path / "script.zz"
        fpath.write_text(TRI)
        spath.write_text("oe 1 0\n")
        code, _, err = run(capsys, "update", str(fpath), str(spath),
                           "--engine", "fzz")
        assert code == 3 and "not supported" in err

    def test_bad_vertex_id_exits_2(self, tmp_path, capsys):
        fpath = tmp_path / "tri.zz"
        spath = tmp_path / "script.zz"
        fpath.write_text(TRI)
        spath.write_text("fs 1\nie 2 a\n")
        code, out, err = run(capsys, "update", str(fpath), str(spath))
        assert code == 2 and "line 2: bad vertex id" in err and out == ""

    def test_engines_agree_line_for_line(self, tmp_path, capsys):
        fpath = tmp_path / "tri.zz"
        spath = tmp_path / "script.zz"
        fpath.write_text(TRI)
        spath.write_text("fs 1\nbs 5\nie 2 0 1\nic 3\n")
        code_rep, out_rep, _ = run(capsys, "update", str(fpath), str(spath),
                                   "--engine", "rep")
        code_fzz, out_fzz, _ = run(capsys, "update", str(fpath), str(spath),
                                   "--engine", "fzz")
        assert code_rep == code_fzz == 0
        tail = lambda s: s.split("barcode\n", 1)[1]
        assert tail(out_rep) == tail(out_fzz)
        assert not [line for line in out_fzz.splitlines() if line.startswith("vine")]

    def test_fzz_engine_prints_no_vines(self, tmp_path, capsys):
        fpath = tmp_path / "empty.zz"
        spath = tmp_path / "script.zz"
        fpath.write_text("")
        spath.write_text("ie 0 5\n")
        outs = {}
        for engine in ("rep", "fzz"):
            code, outs[engine], _ = run(capsys, "update", str(fpath), str(spath),
                                        "--engine", engine)
            assert code == 0
        assert outs["rep"] == "op 0 ie 0 5\nvine created 0\nbarcode\n0 1 1\n"
        assert outs["fzz"] == "op 0 ie 0 5\nbarcode\n0 1 1\n"


class TestVineyard:
    def test_three_point_toy(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text(POINTS)
        code, out, _ = run(capsys, "vineyard", str(path),
                           "--dim-cap", "2", "--check-every", "1")
        assert code == 0
        assert out.startswith("band 0 delta_hi inf")

    def test_streamed_output_equals_to_text(self, tmp_path, capsys):
        rng = random.Random(11)
        tr = Trajectories({p: [tuple(rng.uniform(0.0, 10.0) for _ in range(2))
                               for _ in range(4)] for p in range(5)})
        path = tmp_path / "cloud.csv"
        path.write_text(tr.to_csv())
        code, out, _ = run(capsys, "vineyard", str(path))
        assert code == 0
        assert out == vineyard(Trajectories.from_csv(path.read_text())).to_text()

    def test_one_point(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("t,id,x,y\n0,0,1.0,1.0\n1,0,2.0,2.0\n")
        code, out, _ = run(capsys, "vineyard", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 and lines[1] == "0 1 1 0"

    def test_bad_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time,id,x,y\n0,0,1,1\n")
        code, _, err = run(capsys, "vineyard", str(path))
        assert code == 2 and "header" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coordinate_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "bad.csv"
        path.write_text(POINTS.replace("1,1,2.5,0.5", f"1,1,2.5,{value}"))
        code, out, err = run(capsys, "vineyard", str(path))
        assert code == 2 and out == "" and "point 1: coordinates must be finite" in err

    @pytest.mark.parametrize("x", ["1e200", "1e308"])
    def test_overflowing_squared_distance_exits_2(self, tmp_path, capsys, x):
        # the coordinates are finite, but the pair's squared distance is
        # not: the sweep printed one wrong band [inf, 0) with exit 0
        path = tmp_path / "far.csv"
        path.write_text(f"t,id,x,y\n0,0,0,0\n0,1,{x},0\n1,0,0,0\n1,1,1,0\n")
        code, out, err = run(capsys, "vineyard", str(path), "--check-every", "1")
        assert code == 2 and out == ""
        assert err == "error: points 0 and 1: squared distance overflows on segment 0\n"

    @pytest.mark.parametrize("option", ["--dim-cap", "--check-every"])
    def test_negative_argument_exits_2(self, tmp_path, capsys, option):
        # --dim-cap -1 printed bands without bars; --check-every -1 checked
        # every band, since index % -1 == 0
        path = tmp_path / "pts.csv"
        path.write_text(POINTS)
        code, out, err = run(capsys, "vineyard", str(path), option, "-1")
        assert code == 2 and out == "" and "must not be negative, got -1" in err

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # as in `zzpers vineyard pts.csv | head -n 1`: the reader closes the
        # pipe after one line, long before the 336 kB of bands are written
        rng = random.Random(2112)
        tr = Trajectories({p: [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
                               for _ in range(6)] for p in range(6)})
        path = tmp_path / "cloud.csv"
        path.write_text(tr.to_csv())
        proc = subprocess.Popen([sys.executable, "-m", "zzpers.cli", "vineyard", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
        assert proc.stdout.readline().startswith(b"band 0 delta_hi inf")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_a_failed_layout_check_exits_4_with_one_line(self, tmp_path):
        # the pair closes from 10^150 to 1 within one segment; band 1's
        # derived layout differs from canonical_layout's
        path = tmp_path / "huge.csv"
        path.write_text("t,id,x,y\n0,0,0,0\n0,1,1e150,0\n1,0,0,0\n1,1,1,0\n")
        proc = subprocess.run([sys.executable, "-m", "zzpers.cli", "vineyard", str(path),
                               "--check-every", "1"], capture_output=True, text=True,
                              env=cli_env(), timeout=60)
        assert proc.returncode == 4
        assert proc.stdout.startswith("band 0 delta_hi inf")
        assert proc.stderr == ("error: band 1 delta_hi 1e+150 delta_lo 0: derived layout "
                               "differs from canonical_layout\n")

    @pytest.mark.parametrize("command", ["vineyard", "bench"])
    def test_an_oracle_mismatch_exits_4_with_one_line(self, command, tmp_path, capsys,
                                                      monkeypatch):
        path = tmp_path / "pts.csv"
        path.write_text(POINTS)
        monkeypatch.setattr(fzz, "barcode_from_scratch", lambda f: [])
        argv = {"vineyard": ["vineyard", str(path), "--check-every", "1"],
                "bench": ["bench", "--points", str(path)]}[command]
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert re.fullmatch(r"error: band 0 delta_hi inf delta_lo \S+: "
                            r"barcode disagrees with the oracle\n", err)


class TestBench:
    def test_random_cloud_reports_table(self, capsys):
        code, out, _ = run(capsys, "bench", "--random", "4,4", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["fw_sw", "bw_sw", "ow_sw", "iw_con",
                                    "ow_exp", "MLen", "T_UP", "T_FS"]
        row = lines[1].split()
        assert len(row) == 8 and row[6].endswith("s") and row[7].endswith("s")

    def test_deterministic_counts_under_seed(self, capsys):
        code1, out1, _ = run(capsys, "bench", "--random", "4,3", "--seed", "9")
        code2, out2, _ = run(capsys, "bench", "--random", "4,3", "--seed", "9")
        counts = lambda s: s.strip().splitlines()[1].split()[:6]
        assert counts(out1) == counts(out2)

    def test_bench_run_raises_when_a_band_disagrees_with_the_oracle(self, monkeypatch):
        rng = random.Random(9)
        tr = Trajectories({p: [tuple(rng.uniform(0.0, 10.0) for _ in range(2))
                               for _ in range(3)] for p in range(4)})
        monkeypatch.setattr(PersistenceState, "barcode", lambda self: [])
        with pytest.raises(AssertionError, match="disagrees with the oracle"):
            bench_run(tr, 2)


class TestTrajectoriesIO:
    def test_csv_round_trip(self):
        from zzpers.dpc import Trajectories
        tr = Trajectories.from_csv(POINTS)
        again = Trajectories.from_csv(tr.to_csv())
        assert again.positions == tr.positions

    def test_bench_from_points_file(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text(POINTS)
        code, out, _ = run(capsys, "bench", "--points", str(path))
        assert code == 0
        assert out.splitlines()[0].startswith("fw_sw")

    def test_missing_sample_rejected(self):
        from zzpers.dpc import Trajectories
        from zzpers.errors import ContractViolation
        with pytest.raises(ContractViolation, match="missing samples"):
            Trajectories.from_csv("t,id,x,y\n0,0,1,1\n0,1,2,2\n1,0,3,3\n")
        # a repeated (t, id) row is refused, not taken in place of the first
        with pytest.raises(ContractViolation,
                           match="line 4: duplicate sample for point 1 at t=0"):
            Trajectories.from_csv(DUPLICATE_ROW)


class TestDegenerateClouds:
    @pytest.mark.parametrize("text, message", [
        ("t,id,x,y\n0,0,0,0\n0,1,1,0\n", "error: a cloud needs at least"),
        ("t,id,x,y\n", "error: a cloud needs at least"),
        (DUPLICATE_ROW, "error: line 4: duplicate sample for point 1 at t=0\n")],
        ids=["one_sample", "header_only", "duplicate_row"])
    def test_vineyard_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        code, out, err = run(capsys, "vineyard", str(path))
        assert code == 2 and out == "" and err.startswith(message)

    @pytest.mark.parametrize("shape", ["4", "a,b", "0,3", "3,1"])
    def test_bench_random_exits_2(self, capsys, shape):
        code, out, err = run(capsys, "bench", "--random", shape)
        assert code == 2 and out == "" and err.startswith("error:")


class TestUnreadableInput:
    @pytest.mark.parametrize("argv, bad", [
        (["barcode", "missing.zz"], "missing.zz"),
        (["barcode", "binary.zz"], "binary.zz"),
        (["update", "tri.zz", "missing.txt"], "missing.txt"),
        (["vineyard", "folder"], "folder"),
        (["bench", "--points", "missing.csv"], "missing.csv")],
        ids=["missing", "not_utf8", "missing_script", "directory", "missing_points"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, monkeypatch, argv, bad):
        monkeypatch.chdir(tmp_path)
        Path("tri.zz").write_text(TRI)
        Path("binary.zz").write_bytes(b"i 0\n\xff\n")
        Path("folder").mkdir()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: cannot read {bad}: ")

from __future__ import annotations

import random

import pytest

from zzpers.cli import bench_run, main
from zzpers.dpc import Trajectories, vineyard
from zzpers.rep_updates import PersistenceState

TRI = "i 0\ni 1\ni 0 1\nd 0 1\nd 1\nd 0\n"

POINTS = """t,id,x,y
0,0,0.0,0.0
0,1,3.0,0.0
0,2,0.0,4.0
1,0,1.0,1.0
1,1,2.5,0.5
1,2,1.0,2.0
"""


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


class TestUpdate:
    def test_round_trip_script(self, tmp_path, capsys):
        from zzpers.filtration import ZigzagFiltration
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


class TestDegenerateClouds:
    @pytest.mark.parametrize("text", ["t,id,x,y\n0,0,0,0\n0,1,1,0\n", "t,id,x,y\n"],
                             ids=["one_sample", "header_only"])
    def test_vineyard_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        code, out, err = run(capsys, "vineyard", str(path))
        assert code == 2 and out == "" and err.startswith("error: a cloud needs at least")

    @pytest.mark.parametrize("shape", ["4", "a,b", "0,3", "3,1"])
    def test_bench_random_exits_2(self, capsys, shape):
        code, out, err = run(capsys, "bench", "--random", shape)
        assert code == 2 and out == "" and err.startswith("error:")

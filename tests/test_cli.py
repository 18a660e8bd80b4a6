import json
import os
import subprocess
import sys

import pytest

import paramhom.cli as cli
from paramhom.cli import main
from paramhom.diagrams import BehaviorType

import corpus
from corpus import point_doc

CIRCLE = {
    "critical_values": [0, 1],
    "vertex_complexes": [[[0]], [[0]]],
    "edge_complexes": [[[0], [1]]],
    "left_maps": [{"0": 0, "1": 0}],
    "right_maps": [{"0": 0, "1": 0}],
}

# height function on a wedge-free segment graph: one edge, both pieces dim 1
TWO_COMPONENT = {
    "critical_values": [0, 1, 2, 3],
    "vertex_complexes": [[[0]], [[0], [1]], [[0], [1]], [[0]]],
    "edge_complexes": [[[0]], [[0], [1]], [[0]]],
    "left_maps": [{"0": 0}, {"0": 0, "1": 1}, {"0": 0}],
    "right_maps": [{"0": 0}, {"0": 0, "1": 1}, {"0": 0}],
}


OVERFLOW_A, OVERFLOW_B = (point_doc(v) for v in corpus.OVERFLOW_VALUES)


@pytest.fixture
def circle_path(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(CIRCLE))
    return str(path)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestDiagram:
    def test_circle_golden(self, circle_path, capsys):
        assert main(["diagram", circle_path]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries == [
            {"dim": 0, "type": "cc", "birth": 0, "death": 1, "multiplicity": 1},
            {"dim": 0, "type": "oo", "birth": 0, "death": 1, "multiplicity": 1},
        ]

    def test_deterministic_bytes(self, circle_path, capsys):
        main(["diagram", circle_path])
        first = capsys.readouterr().out
        main(["diagram", circle_path])
        assert capsys.readouterr().out == first

    def test_out_file(self, circle_path, tmp_path, capsys):
        out = tmp_path / "dgm.json"
        assert main(["diagram", circle_path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())

    def test_cohomology_route_agrees(self, circle_path, capsys):
        main(["diagram", circle_path])
        plain = capsys.readouterr().out
        assert main(["diagram", circle_path, "--cohomology"]) == 0
        assert capsys.readouterr().out == plain

    def test_empty_space(self, tmp_path, capsys):
        doc = {"critical_values": [0], "vertex_complexes": [[]],
               "edge_complexes": [], "left_maps": [], "right_maps": []}
        assert main(["diagram", write_doc(tmp_path, "e.json", doc)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_malformed_values_exit_2(self, tmp_path, capsys):
        doc = dict(CIRCLE, critical_values=[1, 0])
        assert main(["diagram", write_doc(tmp_path, "bad.json", doc)]) == 2
        assert "increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["vertex_complexes", "edge_complexes",
                                     "left_maps", "right_maps"])
    def test_non_list_field_exit_2(self, tmp_path, capsys, key):
        doc = dict(CIRCLE, **{key: 5})
        assert main(["diagram", write_doc(tmp_path, "bad.json", doc)]) == 2
        assert f"{key} must be a list" in capsys.readouterr().err

    def test_huge_characteristic_exit_2_at_once(self, tmp_path):
        # 2^61 - 1 is prime: trial division alone would run for hours
        path = write_doc(tmp_path, "big.json", dict(CIRCLE, characteristic=2 ** 61 - 1))
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-m", "paramhom.cli", "diagram", path],
                              capture_output=True, text=True, timeout=30,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        assert "too large" in proc.stderr

    @pytest.mark.parametrize("table", [
        {"0": 0, "1": 0, "01": 0},
        {"0": 0, " 1 ": 0},
        {"0": 0, "+1": 0},
        {"0": 0, "\u0661": 0},  # ARABIC-INDIC DIGIT ONE
    ])
    def test_noncanonical_vertex_key_exit_2(self, tmp_path, capsys, table):
        # each key would read as vertex 1, so a table could name it twice
        doc = dict(CIRCLE, left_maps=[table])
        assert main(["diagram", write_doc(tmp_path, "bad.json", doc)]) == 2
        assert "bad vertex id" in capsys.readouterr().err

    def test_vertex_outside_gap_fiber_exit_2(self, tmp_path, capsys):
        doc = dict(CIRCLE, left_maps=[{"0": 0, "1": 0, "7": 0}])
        assert main(["diagram", write_doc(tmp_path, "bad.json", doc)]) == 2
        assert "names vertex 7, which is not in the gap fiber" in capsys.readouterr().err

    def test_repeated_json_key_exit_2(self, tmp_path, capsys):
        # json.load would keep the last "1" and read a valid circle
        text = json.dumps(CIRCLE).replace('"right_maps": [{"0": 0, "1": 0}]',
                                          '"right_maps": [{"0": 0, "1": 0, "1": 0}]')
        assert '"1": 0, "1": 0' in text
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert main(["diagram", str(path)]) == 2
        assert "repeated key '1'" in capsys.readouterr().err

    def test_unreadable_file_exit_2(self, tmp_path, capsys):
        assert main(["diagram", str(tmp_path / "missing.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestMeasure:
    def test_value_and_cross_check(self, circle_path, capsys):
        assert main(["measure", circle_path, "--type", "cc", "--dim", "0",
                     "--rect=-1,0,1,2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "1"
        assert out[1] == "cross-check: 1 (agree)"

    def test_absent_bar(self, circle_path, capsys):
        assert main(["measure", circle_path, "--type", "oo", "--dim", "0",
                     "--rect=-1,-0.5,1.5,2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0"

    def test_infinite_corners(self, circle_path, capsys):
        assert main(["measure", circle_path, "--type", "cc", "--dim", "0",
                     "--rect=-inf,0.5,0.7,inf"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1"

    def test_degenerate_rectangle_exit_2(self, circle_path, capsys):
        assert main(["measure", circle_path, "--type", "cc", "--dim", "0",
                     "--rect=0,2,1,3"]) == 2
        assert "rectangle" in capsys.readouterr().err

    def test_malformed_corner_exit_2(self, circle_path, capsys):
        assert main(["measure", circle_path, "--type", "cc", "--dim", "0",
                     "--rect=a,b,c,d"]) == 2
        capsys.readouterr()

    def test_disagreement_flagged(self, circle_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "measure_profile",
                            lambda *a: {t: 99 for t in BehaviorType})
        assert main(["measure", circle_path, "--type", "cc", "--dim", "0",
                     "--rect=-1,0,1,2"]) == 1
        assert "DISAGREE" in capsys.readouterr().out


class TestBottleneck:
    def make_diagrams(self, tmp_path, circle_path, capsys):
        main(["diagram", circle_path, "--out", str(tmp_path / "a.json")])
        shifted = dict(CIRCLE, critical_values=[0.25, 0.75])
        main(["diagram", write_doc(tmp_path, "s.json", shifted),
              "--out", str(tmp_path / "b.json")])
        return str(tmp_path / "a.json"), str(tmp_path / "b.json")

    def test_self_distance(self, tmp_path, circle_path, capsys):
        a, _ = self.make_diagrams(tmp_path, circle_path, capsys)
        assert main(["bottleneck", a, a, "--dim", "0", "--type", "cc"]) == 0
        assert capsys.readouterr().out == "0.000000000\n"

    def test_shifted(self, tmp_path, circle_path, capsys):
        a, b = self.make_diagrams(tmp_path, circle_path, capsys)
        assert main(["bottleneck", a, b, "--dim", "0", "--type", "cc"]) == 0
        assert capsys.readouterr().out == "0.250000000\n"

    def test_missing_dim_is_empty(self, tmp_path, circle_path, capsys):
        a, _ = self.make_diagrams(tmp_path, circle_path, capsys)
        assert main(["bottleneck", a, a, "--dim", "5", "--type", "oc"]) == 0
        assert capsys.readouterr().out == "0.000000000\n"

    def test_repeated_json_key_exit_2(self, tmp_path, circle_path, capsys):
        a, _ = self.make_diagrams(tmp_path, circle_path, capsys)
        with open(a, encoding="utf-8") as fh:
            text = fh.read()
        # json.load would keep the last multiplicity, 2, of the first entry
        path = tmp_path / "repeated.json"
        path.write_text(text.replace('"multiplicity": 1',
                                     '"multiplicity": 1, "multiplicity": 2', 1))
        assert main(["bottleneck", a, str(path), "--dim", "0", "--type", "cc"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "repeated key 'multiplicity'" in err

    def test_overflowing_coordinates_exit_2(self, tmp_path, capsys):
        paths = []
        for name, doc in (("a", OVERFLOW_A), ("b", OVERFLOW_B)):
            paths.append(str(tmp_path / f"{name}.dgm.json"))
            main(["diagram", write_doc(tmp_path, f"{name}.json", doc), "--out", paths[-1]])
        assert main(["bottleneck", *paths, "--dim", "0", "--type", "cc"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "float range" in err


class TestStability:
    def test_pass_and_report(self, tmp_path, circle_path, capsys):
        shifted = write_doc(tmp_path, "s.json",
                            dict(CIRCLE, critical_values=[0.1, 0.9]))
        assert main(["stability", circle_path, shifted]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "k=0 type=cc d_b=0.100000000 delta=0.100000000 PASS" in lines
        assert all(line.endswith("PASS") for line in lines)

    def test_mismatched_combinatorics_exit_2(self, tmp_path, circle_path, capsys):
        other = write_doc(tmp_path, "o.json", TWO_COMPONENT)
        assert main(["stability", circle_path, other]) == 2
        capsys.readouterr()

    def test_different_fields_exit_2(self, tmp_path, capsys):
        # RP^2 has H_1 over F_2 only: without the field check this read
        # as a failed stability bound (exit 1)
        a = write_doc(tmp_path, "a.json", corpus.constant_doc(corpus.RP2, 2))
        b = write_doc(tmp_path, "b.json", corpus.constant_doc(corpus.RP2, 3))
        assert main(["stability", a, b]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "field" in err

    def test_overflowing_values_exit_2(self, tmp_path, capsys):
        # d_b and delta both read inf here, and the bound used to pass
        a = write_doc(tmp_path, "a.json", OVERFLOW_A)
        b = write_doc(tmp_path, "b.json", OVERFLOW_B)
        assert main(["stability", a, b]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out and "float range" in err

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_bad_tolerance_exit_2(self, circle_path, capsys, tolerance):
        assert main(["stability", circle_path, circle_path,
                     f"--tolerance={tolerance}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "tolerance" in err


class TestExtended:
    def test_essential_pair(self, circle_path, capsys):
        assert main(["extended", circle_path, "--type", "ext+", "--dim", "0",
                     "--rect=-1,0,1,2"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_essential_cycle(self, circle_path, capsys):
        assert main(["extended", circle_path, "--type", "ext-", "--dim", "1",
                     "--rect=-0.2,0.3,0.6,1.4"]) == 0
        assert capsys.readouterr().out == "1\n"


class TestValidate:
    def test_circle_passes(self, circle_path, capsys):
        assert main(["validate", circle_path, "--samples", "4"]) == 0
        out = capsys.readouterr().out
        for name in ("additivity", "restriction", "equivalence",
                     "duality", "bound", "correspondence"):
            assert f"PASS {name}" in out

    def test_two_component_passes(self, tmp_path, capsys):
        path = write_doc(tmp_path, "t.json", TWO_COMPONENT)
        assert main(["validate", path, "--samples", "4"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("values", [[1e17], [1e17, 10 ** 17 + 16]])
    def test_crowded_critical_values_exit_2_at_once(self, tmp_path, values):
        # every candidate corner rounds onto at most two floats, so four
        # distinct corners cannot be drawn; the draw used to loop forever
        path = write_doc(tmp_path, "crowded.json", point_doc(values))
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-m", "paramhom.cli", "validate", path],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        assert "distinct rectangle corners" in proc.stderr

    def test_large_critical_values_split_inside(self, tmp_path, capsys):
        # b - 1.0 == b and midpoints of float neighbours round onto an end:
        # the additivity splits must still fall strictly inside each edge
        path = write_doc(tmp_path, "large.json",
                         point_doc([1e17, 10 ** 17 + 64, 10 ** 17 + 128]))
        assert main(["validate", path, "--samples", "6"]) == 0
        assert "PASS additivity" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_exit_2(self, circle_path, capsys, samples):
        assert main(["validate", circle_path, f"--samples={samples}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--samples" in err


class TestPlot:
    def render(self, tmp_path, circle_path, capsys):
        main(["diagram", circle_path, "--out", str(tmp_path / "d.json")])
        out = tmp_path / "d.svg"
        assert main(["plot", str(tmp_path / "d.json"), "--out", str(out)]) == 0
        capsys.readouterr()
        return out.read_text()

    def test_marks_and_ticks(self, tmp_path, circle_path, capsys):
        svg = self.render(tmp_path, circle_path, capsys)
        assert svg.count('class="mark') == 2
        assert 'class="mark cc"' in svg
        assert 'class="mark oo"' in svg
        assert "H0" in svg  # legend

    def test_tick_orientations(self, tmp_path, circle_path, capsys):
        svg = self.render(tmp_path, circle_path, capsys)
        marks = {}
        for chunk in svg.split('<g class="mark ')[1:]:
            code = chunk[:2]
            line = chunk.split("<line ")[1]
            attrs = dict(part.split("=") for part in line.split("/>")[0].split())
            x1, x2 = float(attrs["x1"].strip('"')), float(attrs["x2"].strip('"'))
            y1, y2 = float(attrs["y1"].strip('"')), float(attrs["y2"].strip('"'))
            marks[code] = (x2 - x1, y2 - y1)
        # closed birth ticks left, closed death ticks up (negative svg y)
        assert marks["cc"][0] < 0 and marks["cc"][1] < 0
        # open ends tick the other way
        assert marks["oo"][0] > 0 and marks["oo"][1] > 0

    def test_deterministic(self, tmp_path, circle_path, capsys):
        assert self.render(tmp_path, circle_path, capsys) == \
            self.render(tmp_path, circle_path, capsys)

    def test_empty_diagram_axes_only(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        out = tmp_path / "empty.svg"
        assert main(["plot", str(path), "--out", str(out)]) == 0
        svg = out.read_text()
        assert "mark" not in svg
        assert "<svg" in svg and "birth" in svg

    def test_diagram_of_close_values_reads_back(self, tmp_path, capsys):
        # the oo point (1, 1.0000000000001) printed as (1, 1), a width-zero
        # feature that plot and bottleneck refused
        path = write_doc(tmp_path, "close.json",
                         dict(CIRCLE, critical_values=[1, 1.0000000000001]))
        dgm = str(tmp_path / "d.json")
        assert main(["diagram", path, "--out", dgm]) == 0
        assert main(["plot", dgm, "--out", str(tmp_path / "d.svg")]) == 0
        assert main(["bottleneck", dgm, dgm, "--dim", "0", "--type", "oo"]) == 0
        assert capsys.readouterr().out == "0.000000000\n"

    def test_infinite_death_in_gutter(self, tmp_path, capsys):
        entries = [{"dim": 1, "type": "oo", "birth": 0, "death": "inf",
                    "multiplicity": 3}]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(entries))
        out = tmp_path / "inf.svg"
        assert main(["plot", str(path), "--out", str(out)]) == 0
        svg = out.read_text()
        assert 'class="mark oo"' in svg
        assert "&#215;3" in svg  # multiplicity label


class TestUsage:
    @pytest.mark.parametrize("command", [
        ["diagram", "DEEP"],
        ["plot", "DEEP"],
        ["bottleneck", "DEEP", "DEEP", "--dim", "0", "--type", "cc"],
        ["stability", "DEEP", "DEEP"],
    ])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main([str(path) if arg == "DEEP" else arg for arg in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_unknown_type_code(self, circle_path):
        with pytest.raises(SystemExit) as exc:
            main(["measure", circle_path, "--type", "xx", "--dim", "0",
                  "--rect=0,1,2,3"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_negative_dim_exit_2(self, circle_path, capsys):
        assert main(["measure", circle_path, "--type", "cc", "--dim", "-1",
                     "--rect=0.2,0.4,0.6,0.8"]) == 2
        capsys.readouterr()

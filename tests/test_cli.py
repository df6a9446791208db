"""Command-line interface: build, verify, export."""

import json
import time
from pathlib import Path

import pytest

from fraisse_forge import cli, serialization
from fraisse_forge.presets import edgeless_graph


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_build_writes_stages_and_manifest(self, tmp_path, capsys):
        code, out, err = run(capsys, "build", "--root", "edgeless:2",
                             "--stages", "1", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "stage0.json").exists()
        assert (tmp_path / "stage1.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "build"
        assert manifest["outcome"]["stage_sizes"][0] == 2
        assert json.loads(out)["command"] == "build"
        assert serialization.loads(
            (tmp_path / "stage0.json").read_text()) == edgeless_graph(2)

    def test_deterministic_rebuild(self, tmp_path, capsys):
        args = ("build", "--root", "antichain:2", "--stages", "1")
        run(capsys, *args, "--out", str(tmp_path / "a"))
        run(capsys, *args, "--out", str(tmp_path / "b"))
        for name in ("stage0.json", "stage1.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_metric_build_needs_grid(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "--root", "simplex:2:1",
                           "--out", str(tmp_path))
        assert code == 2 and "error:" in err
        code, _, _ = run(capsys, "build", "--root", "simplex:2:1",
                         "--grid", "1,2", "--out", str(tmp_path))
        assert code == 0

    def test_bad_preset(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "--root", "edgeless:zero",
                           "--out", str(tmp_path))
        assert code == 2 and "error:" in err

    def test_root_file_input(self, tmp_path, capsys):
        p = tmp_path / "root.json"
        p.write_text(serialization.dumps(edgeless_graph(2)))
        code, _, _ = run(capsys, "build", "--root", str(p),
                         "--out", str(tmp_path / "out"))
        assert code == 0

    @pytest.mark.parametrize("text", [
        '{"carrier":["a"],"class":"graph","table":[[0]]}',
        '{"carrier":["a","b"],"class":"metric","table":[[0,1,"1/0"]]}',
        "{",
    ], ids=["short-row", "distance-1/0", "not-json"])
    def test_malformed_root_file(self, tmp_path, capsys, text):
        p = tmp_path / "root.json"
        p.write_text(text)
        code, _, err = run(capsys, "build", "--root", str(p),
                           "--out", str(tmp_path / "out"))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("spec", ["simplex:2:x", "simplex:2:1/0", "simplex:2:0"])
    def test_bad_simplex_distance(self, tmp_path, capsys, spec):
        code, _, err = run(capsys, "build", "--root", spec, "--grid", "1,2",
                           "--out", str(tmp_path))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("grid", ["x", "1/0"])
    def test_bad_grid(self, tmp_path, capsys, grid):
        code, _, err = run(capsys, "build", "--root", "simplex:2:1", "--grid", grid,
                           "--out", str(tmp_path))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    @pytest.mark.parametrize("command", ["build", "export"])
    def test_unreadable_root_file(self, tmp_path, capsys, kind, command):
        p = tmp_path / "root.json"
        if kind == "directory":
            p.mkdir()
        else:
            p.write_bytes(b'\xff{"carrier":["a"]}')
        if command == "build":
            argv = ("build", "--root", str(p), "--out", str(tmp_path / "out"))
        else:
            argv = ("export", "--stage", str(p), "--format", "json")
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error:" in err

    def test_class_mismatch(self, tmp_path, capsys):
        code, _, err = run(capsys, "build", "--root", "edgeless:2",
                           "--class", "poset", "--out", str(tmp_path))
        assert code == 2


class TestVerify:
    def test_axioms_on_built_dir(self, tmp_path, capsys):
        run(capsys, "build", "--root", "edgeless:2", "--out", str(tmp_path))
        code, out, err = run(capsys, "verify", "--suite", "axioms",
                             "--dir", str(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["checked"] == 2
        assert "PASS" in err

    def test_axioms_on_root(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "axioms",
                           "--root", "freesemilattice:2")
        assert code == 0 and json.loads(out)["passed"]

    def test_axioms_needs_input(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "axioms")
        assert code == 2

    @pytest.mark.parametrize("grid", ["x", "1/0"])
    @pytest.mark.parametrize("suite", ["pushout-oracle", "homogeneity"])
    def test_bad_grid(self, capsys, suite, grid):
        code, _, err = run(capsys, "verify", "--suite", suite, "--class", "metric",
                           "--root", "simplex:2:1", "--grid", grid)
        assert code == 2 and "error:" in err

    def test_unreadable_stage_file(self, tmp_path, capsys):
        (tmp_path / "stage0.json").mkdir()
        code, _, err = run(capsys, "verify", "--suite", "axioms",
                           "--dir", str(tmp_path))
        assert code == 2 and "error:" in err

    def test_pushout_oracle_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "pushout-oracle",
                           "--class", "graph", "--max-size", "2")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["checked"] > 0 and not report["skipped"]

    def test_pushout_oracle_needs_class(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "pushout-oracle")
        assert code == 2

    def test_homogeneity(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "homogeneity",
                           "--root", "antichain:2")
        assert code == 0 and json.loads(out)["passed"]

    def test_functoriality(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "functoriality",
                           "--root", "edgeless:2")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["endomorphisms"] == 4

    def test_functoriality_refuses_star_past_ceiling(self, capsys, monkeypatch):
        monkeypatch.delenv("FORGE_MAX_CARRIER", raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", "functoriality",
                             "--root", "freesemilattice:3", "--max-base", "2")
        assert code == 2 and not out
        assert "stage 1 has at least 5001 elements" in err
        assert time.perf_counter() - start < 30

    def test_cayley(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "cayley",
                           "--class", "poset")
        assert code == 0 and json.loads(out)["checked"] == 16


class TestExport:
    def test_json_stdout(self, capsys):
        code, out, _ = run(capsys, "export", "--stage", "edgeless:2",
                           "--format", "json")
        assert code == 0
        assert out == serialization.dumps(edgeless_graph(2))

    def test_dot_to_file(self, tmp_path, capsys):
        target = tmp_path / "g.dot"
        code, out, err = run(capsys, "export", "--stage", "antichain:2",
                             "--format", "dot", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("digraph {")

    def test_metric_dot_refused(self, capsys):
        code, _, err = run(capsys, "export", "--stage", "simplex:2:1",
                           "--format", "dot")
        assert code == 2 and "error:" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "export", "--stage", "no-such-file.json",
                         "--format", "json")
        assert code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0

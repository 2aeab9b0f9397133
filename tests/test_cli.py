"""Command line behaviour: exit codes, determinism, formats, cache."""
import json
import os
from pathlib import Path

import pytest

from ogclab.cli import main


def run(args):
    return main(args)


def read_tree(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_enumerate_smallest_oriented_stratum(tmp_path, capsys):
    code = run(["enumerate", "--flavor", "oriented", "-g", "1", "-n", "1",
                "--out", str(tmp_path / "o")])
    assert code == 0
    doc = json.loads((tmp_path / "o" / "enumerate_index.json").read_text())
    assert doc[0]["cells"] == 1
    graph_files = list((tmp_path / "o" / "oriented_g1_n1").glob("oriented_*.json"))
    assert len(graph_files) == 1
    data = json.loads(graph_files[0].read_text())
    assert len(data["edges"]) == 2          # the oriented loop


def test_unstable_pair_is_usage_error(tmp_path, capsys):
    code = run(["enumerate", "-g", "0", "-n", "2", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "pair (g=0, n=2)" in capsys.readouterr().err
    code = run(["enumerate", "-g", "-1", "-n", "5", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "pair (g=-1, n=5): genus" in capsys.readouterr().err


def test_bad_flag_is_usage_error():
    assert run(["betti", "-g", "1"]) == 2


def test_max_cells_gives_resource_exit(tmp_path):
    code = run(["enumerate", "--flavor", "oriented", "-g", "0", "-n", "4",
                "--max-cells", "10", "--out", str(tmp_path / "cap")])
    assert code == 3


def test_enumerate_deterministic_across_threads(tmp_path):
    for threads, name in [("1", "a"), ("4", "b"), ("8", "c")]:
        code = run(["enumerate", "-g", "1", "-n", "1..2", "--threads", threads,
                    "--out", str(tmp_path / name)])
        assert code == 0
    a, b, c = (read_tree(tmp_path / k) for k in ("a", "b", "c"))
    assert a == b == c


def test_betti_formats_encode_same_numbers(tmp_path, capsys):
    assert run(["betti", "-g", "1", "-n", "2", "--format", "csv",
                "--out", str(tmp_path / "csv")]) == 0
    csv_text = capsys.readouterr().out
    assert run(["betti", "-g", "1", "-n", "2", "--format", "json",
                "--out", str(tmp_path / "json")]) == 0
    json_text = capsys.readouterr().out
    rows = json.loads(json_text)
    lines = [l for l in csv_text.strip().splitlines()[1:] if l]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        parts = line.split(",")
        assert int(parts[3]) == row["cell_degree"]
        assert int(parts[6]) == row["betti"]


def test_betti_shifted_tables_for_one_two(tmp_path, capsys):
    assert run(["betti", "-g", "1", "-n", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    marked = {r["cell_degree"]: r["betti"] for r in rows if r["flavor"] == "marked"}
    oriented = {r["cell_degree"]: r["betti"] for r in rows if r["flavor"] == "oriented"}
    n = 2
    for k in marked:
        assert marked[k] == oriented.get(k + n, 0)


def test_verify_zivkovic_passes_and_writes_report(tmp_path, capsys):
    code = run(["verify-zivkovic", "-g", "1", "-n", "1",
                "--out", str(tmp_path / "v")])
    assert code == 0
    doc = json.loads((tmp_path / "v" / "verify_g1_n1.json").read_text())
    assert doc["passed"] is True
    assert doc["chain_map"]["full_identity"] is True


def test_verify_zivkovic_detects_failure(capsys):
    # genus 0 with clumped labels: quasi-isomorphism genuinely fails there
    code = run(["verify-zivkovic", "-g", "0", "-n", "4"])
    assert code == 1


def test_matrix_export(tmp_path, capsys):
    assert run(["betti", "-g", "1", "-n", "2", "--flavor", "marked",
                "--export-matrices", "--out", str(tmp_path / "m")]) == 0
    files = list((tmp_path / "m").glob("d_marked_*.mtx"))
    assert files
    from ogclab.linalg import read_matrix_market
    m = read_matrix_market(str(files[0]))
    assert m.nnz > 0


def test_cache_reused_between_commands(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path / "cache"))
    os.makedirs(tmp_path / "cache", exist_ok=True)
    assert run(["betti", "-g", "1", "-n", "1", "--flavor", "marked"]) == 0
    capsys.readouterr()
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["marked_g1_n1_std_v1.json"]
    assert run(["betti", "-g", "1", "-n", "1", "--flavor", "marked"]) == 0
    out = capsys.readouterr().out
    assert "betti" in out


@pytest.mark.parametrize("g, n", [(1, 2), (2, 1)])
def test_verify_and_betti_outputs_do_not_depend_on_the_cache(tmp_path, capsys, monkeypatch,
                                                             g, n):
    # without a cache, on an empty one (cold, which writes it) and on that
    # filled one (warm, which reads it through load_catalog)
    import ogclab.catalogs as catalogs

    loads = []
    load = catalogs.load_catalog
    monkeypatch.setattr(catalogs, "load_catalog", lambda path: loads.append(path) or load(path))
    outputs = {}
    for command in ("betti", "verify-zivkovic"):
        cache = tmp_path / "cache" / command
        for route in ("unset", "cold", "warm"):
            if route == "unset":
                monkeypatch.delenv("OGCLAB_CACHE", raising=False)
            else:
                monkeypatch.setenv("OGCLAB_CACHE", str(cache))
            loads.clear()
            out = tmp_path / route / command
            extra = ["--flavor", "both", "--export-matrices"] if command == "betti" else []
            assert run([command, "-g", str(g), "-n", str(n), *extra, "--out", str(out)]) == 0
            capsys.readouterr()
            assert sorted(loads) == (sorted(map(str, cache.iterdir())) if route == "warm" else [])
            tree = read_tree(out)
            if command == "verify-zivkovic":
                report = json.loads(tree[f"verify_g{g}_n{n}.json"])
                del report["timings"]
                tree = report
            outputs.setdefault(command, []).append(tree)
        assert len(loads) == 2              # both flavours read warm
    for command, (unset, cold, warm) in outputs.items():
        assert unset == cold == warm, command


def test_label_past_a_byte_is_usage_error_before_out(tmp_path, capsys):
    out = tmp_path / "D"
    assert run(["enumerate", "-g", "1", "-n", "256", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "pair (g=1, n=256): marking label must be an integer in 0..255, got 256" in err
    assert not out.exists()


def test_non_integer_range_is_usage_error(capsys):
    assert run(["betti", "-g", "x", "-n", "1"]) == 2
    assert run(["enumerate", "-g", "1", "-n", "1..y"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_usage_error_creates_no_output_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["enumerate", "-g", "1", "-n", "1..y"]) == 2
    assert run(["enumerate", "-g", "0", "-n", "2"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_genus_zero_oriented_betti_survives_a_warm_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path / "cache"))
    os.makedirs(tmp_path / "cache")
    outs = []
    for _ in range(2):
        assert run(["betti", "-g", "0", "-n", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert (tmp_path / "cache" / "oriented_g0_n3_std_v1.json").is_file()
    assert outs[0] == outs[1] and outs[0].startswith("flavor,")


def test_partial_cache_directory_does_not_block_later_runs(tmp_path, capsys, monkeypatch):
    # a directory of the former cache format is ignored, a partial file replaced
    cache = tmp_path / "cache"
    monkeypatch.setenv("OGCLAB_CACHE", str(cache))
    (cache / "marked_g1_n1_std_v1").mkdir(parents=True)
    (cache / "marked_g1_n1_std_v1.json").write_text('{"flavor": "marked", "ke')
    assert run(["betti", "-g", "1", "-n", "1", "--flavor", "marked"]) == 0
    assert json.loads((cache / "marked_g1_n1_std_v1.json").read_text())["keys"]


def test_export_matrices_without_out_is_usage_error(capsys):
    assert run(["betti", "-g", "1", "-n", "1", "--flavor", "marked",
                "--export-matrices"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enumerate", "betti", "verify-zivkovic"])
def test_empty_range_is_usage_error(tmp_path, capsys, command):
    for genus, markings in [("2..1", "1"), ("1", "3..2")]:
        out = tmp_path / "out"
        assert run([command, "-g", genus, "-n", markings, "--out", str(out)]) == 2
        assert "empty range" in capsys.readouterr().err
        assert not out.exists()


def test_negative_cell_cap_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["enumerate", "-g", "1", "-n", "1", "--max-cells", "-5",
                "--out", str(out)]) == 2
    assert "--max-cells" in capsys.readouterr().err
    assert not out.exists()
    assert run(["enumerate", "-g", "1", "-n", "1", "--max-cells", "0",
                "--out", str(out)]) == 3


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["enumerate", "betti", "verify-zivkovic"])
def test_unusable_out_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                     command, under):
    import ogclab.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("computed before --out was created")

    monkeypatch.setattr(cli, "generate_or_load", no_work)
    monkeypatch.setattr(cli, "run_verification", no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert run([command, "-g", "1", "-n", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error") and str(out) in err[0]


@pytest.mark.parametrize("command", ["enumerate", "betti", "verify-zivkovic"])
def test_empty_out_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch, command):
    # not ignored, and not enumerate's default directory either
    import ogclab.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(cli, "generate_or_load", no_work)
    monkeypatch.setattr(cli, "run_verification", no_work)
    monkeypatch.chdir(tmp_path)
    assert run([command, "-g", "1", "-n", "2", "--out", ""]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error") and "--out" in err[0]
    assert list(tmp_path.iterdir()) == []


def test_cache_root_that_is_a_file_is_usage_error(tmp_path, capsys, monkeypatch):
    root = tmp_path / "cache"
    root.write_text("")
    monkeypatch.setenv("OGCLAB_CACHE", str(root))
    assert run(["enumerate", "--flavor", "marked", "-g", "1", "-n", "1",
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error") and str(root) in err[0]


@pytest.mark.parametrize("stage", ["generate", "cache-write"])
def test_interrupt_exits_130_without_traceback(tmp_path, capsys, monkeypatch, stage):
    import ogclab.catalogs as catalogs

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    if stage == "generate":
        monkeypatch.setattr(catalogs, "generate_oriented", interrupted)
    else:
        monkeypatch.setattr(catalogs.json, "dump", interrupted)
    cache = tmp_path / "cache"
    monkeypatch.setenv("OGCLAB_CACHE", str(cache))
    code = run(["enumerate", "--flavor", "oriented", "-g", "1", "-n", "2",
                "--out", str(tmp_path / "out")])
    assert code == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert "Traceback" not in captured.out
    assert list(tmp_path.rglob("*.tmp-*")) == []
    assert not cache.exists() or list(cache.iterdir()) == []

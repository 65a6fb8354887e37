import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coxkit
from coxkit import corpus
from coxkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """The command line in a fresh interpreter, importing this checkout's
    coxkit, so that an uncaught exception shows as a traceback on stderr."""
    src = str(Path(coxkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "coxkit.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


# -- golden outputs ------------------------------------------------------------


def test_normalize_golden(capsys):
    code, out, err = run(capsys, "normalize", "a2", "t s t")
    assert (code, out, err) == (0, "s t s\n", "")


def test_length_golden(capsys):
    code, out, err = run(capsys, "length", "a2", "s s")
    assert (code, out) == (0, "0\n")


def test_mult_golden(capsys):
    code, out, _ = run(capsys, "mult", "a2", "s t s", "s")
    assert (code, out) == (0, "s t\n")


def test_pc_golden(capsys):
    code, out, _ = run(capsys, "pc", "a2", "s t s")
    assert code == 0
    assert out.splitlines() == ["representative: s", "generators: {t}",
                                "rank: 1", "status: Exact"]


def test_pc_certified_golden(capsys):
    code, out, _ = run(capsys, "pc", "hyperbolic_334", "a b c", "--radius", "12")
    assert code == 0
    assert out.splitlines() == ["representative: e", "generators: {a, b, c}",
                                "rank: 3", "status: Exact"]


def test_pc_reflection_golden(capsys):
    # certified by a cone point and one walk in W_{a, c}; no candidate table
    code, out, _ = run(capsys, "pc", "hyperbolic_334", "a")
    assert code == 0
    assert out.splitlines() == ["representative: e", "generators: {a}",
                                "rank: 1", "status: Exact"]


def test_roots_golden(capsys):
    code, out, _ = run(capsys, "roots", "a2", "--depth", "8")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "positive roots through depth 8: 3"
    assert len(lines) == 4


def test_reflect_golden(capsys):
    code, out, _ = run(capsys, "reflect", "dihedral_inf", "3,2")
    assert (code, out) == (0, "s t s t s\n")


def test_locate_golden(capsys):
    code, out, _ = run(capsys, "locate", "a2", "1/2,1/2")
    assert code == 0
    assert out.splitlines()[0] == "element: e"


def test_intersect_golden(capsys):
    code, out, _ = run(capsys, "intersect", "a3", "e", "a,b", "e", "b,c")
    assert code == 0
    assert out.splitlines() == ["representative: e", "generators: {b}",
                                "rank: 1"]


def test_validate_golden(capsys):
    code, out, _ = run(capsys, "validate", "b3")
    assert code == 0
    assert "rank: 3" in out and "field degree: 4" in out


def test_oracle_compare(capsys):
    code, out, _ = run(capsys, "oracle-compare", "a2", "--samples", "50")
    assert code == 0
    assert "oracle agrees" in out


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "infinite-closure")
    assert code == 0
    assert out.startswith("infinite-closure: 2 checks, ok")
    assert "all suites passed" in out


def test_verify_json_reports_seconds_per_suite(capsys):
    code, out, _ = run(capsys, "--json", "verify", "--suite", "infinite-closure",
                       "--suite", "product-orders")
    assert code == 0
    suites = json.loads(out)["result"]
    assert [s["suite"] for s in suites] == ["infinite-closure", "product-orders"]
    for s in suites:
        assert isinstance(s["seconds"], float) and s["seconds"] >= 0


def test_verify_unknown_suite_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "kernel", "--suite", "nope")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: unknown suite 'nope'; choose from")


# -- json mode -----------------------------------------------------------------


def test_json_normalize(capsys):
    code, out, _ = run(capsys, "--json", "normalize", "a2", "t s t")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "normalize"
    assert doc["inputs"] == {"group": "a2", "word": "t s t"}
    assert doc["result"] == {"word": "s t s", "length": 3}
    assert doc["status"] == "ok"


def test_json_matches_text_semantics(capsys):
    _, text_out, _ = run(capsys, "pc", "a2", "s t s")
    code, out, _ = run(capsys, "--json", "pc", "a2", "s t s")
    doc = json.loads(out)
    assert doc["result"]["representative"] == "s"
    assert doc["result"]["generators"] == ["t"]
    assert doc["result"]["rank"] == 1
    assert doc["result"]["status"] == "exact"
    assert "representative: s" in text_out


def test_json_error_payload(capsys):
    code, out, err = run(capsys, "--json", "normalize", "a2", "q")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["result"]["error"] == "UnknownGenerator"


# -- exit codes ----------------------------------------------------------------


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "normalize", "a2", "q")
    assert code == 1
    assert err.startswith("UnknownGenerator:")


def test_invalid_file_is_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.cox"
    bad.write_text("rank 2\nlabels s t\n1 3\n3 2\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert err.startswith("InvalidMatrix:")


def test_directory_as_group_file_is_usage_error(tmp_path):
    code, _, err = run_process("validate", str(tmp_path))
    assert code == 2
    assert err.startswith("usage error:") and "Traceback" not in err


def test_non_utf8_group_file_is_domain_error(tmp_path):
    bad = tmp_path / "bytes.cox"
    bad.write_bytes(b"rank 1\nlabels s\n1\xff\n")
    code, _, err = run_process("validate", str(bad))
    assert code == 1
    assert err.startswith("InvalidMatrix:") and "Traceback" not in err


@pytest.mark.parametrize("rows", [
    ["1 1000003", "1000003 1"],
    ["1 11 2 2", "11 1 13 2", "2 13 1 17", "2 2 17 1"],
])
def test_oversized_field_is_domain_error(tmp_path, rows):
    path = tmp_path / "big.cox"
    labels = " ".join("abcd"[:len(rows)])
    path.write_text(f"rank {len(rows)}\nlabels {labels}\n" + "\n".join(rows) + "\n")
    start = time.monotonic()
    code, _, err = run_process("validate", str(path))
    assert time.monotonic() - start < 5
    assert code == 1
    assert err.startswith("FieldTooLarge:") and "Traceback" not in err


def test_candidate_scan_past_its_cap_is_domain_error(tmp_path):
    # labels 3, 3 and inf: no classified cone, so pc falls back to the scan,
    # whose BFS grows about 1.6 times per length; b c a c has no hit on its
    # floor before the count passes the cap
    path = tmp_path / "tri.cox"
    path.write_text("rank 3\nlabels a b c\n1 3 inf\n3 1 3\ninf 3 1\n")
    start = time.monotonic()
    code, _, err = run_process("pc", str(path), "b c a c", "--radius", "40")
    assert time.monotonic() - start < 5
    assert code == 1
    assert err.startswith("CandidateTableTooLarge:") and "Traceback" not in err


def test_decimal_rejected_as_usage_error(capsys):
    code, _, err = run(capsys, "locate", "a2", "0.5,0.5")
    assert code == 2
    assert "decimal" in err


@pytest.mark.parametrize("argv", [
    ("pc", "a2", "s", "--radius", "-1"),
    ("roots", "a2", "--depth", "-3"),
    ("oracle-compare", "a2", "--samples", "-5"),
    ("roots", "a2", "--depth", "\u00b2"),
])
def test_bad_count_rejected_as_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_unknown_group_is_usage_error(capsys):
    code, _, err = run(capsys, "length", "nope", "s")
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "a2"])
    assert exc.value.code == 2


def test_group_file_argument(capsys, tmp_path):
    from coxkit.coxgroup import serialize_group
    path = tmp_path / "mine.cox"
    path.write_text(serialize_group(corpus.load("b2")))
    code, out, _ = run(capsys, "normalize", str(path), "s t s t s")
    assert code == 0
    assert out == "t s t\n"

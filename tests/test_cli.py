"""End-to-end command-line tests via subprocess."""

import hashlib
import json
import subprocess
import sys

import pytest

from strata import cli


A2 = """\
field Q
vertices 2
arrow a 1 2
"""

A3 = """\
field Q
vertices 3
arrow a1 1 2
arrow a2 2 3
"""

KRONECKER = """\
field Q
vertices 2
arrow a 1 2
arrow b 1 2
"""

# the affine quiver A~_2 with arrows 1->2, 2->3, 1->3
AFFINE_A2 = """\
field Q
vertices 3
arrow a 1 2
arrow b 2 3
arrow c 1 3
"""

P1_S1 = A2 + """
rep
dims 1 1
map a 1

rep
dims 1 0
"""


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "strata.cli", *argv],
        capture_output=True,
        text=True,
    )


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_jh_verify_a2(tmp_path):
    path = write(tmp_path, "a2.quiver", A2)
    r = run_cli("jh-verify", path, "--bound", "2")
    assert r.returncode == 0, r.stderr
    assert "3 sequences, factors {1,1}, PASS" in r.stdout
    assert "input-hash:" in r.stdout


def test_jh_verify_json_schema(tmp_path):
    path = write(tmp_path, "a2.quiver", A2)
    r = run_cli("jh-verify", path, "--bound", "2", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["sequence_count"] == 3
    assert doc["pass"] is True
    assert doc["n"] == 2
    assert doc["warnings"] == []
    assert len(doc["chains"]) == 3
    for chain in doc["chains"]:
        assert chain["factors"] == [1, 1]


def test_hom_and_ext(tmp_path):
    path = write(tmp_path, "homs.quiver", P1_S1)
    r = run_cli("hom", path)
    assert r.returncode == 0
    assert "Hom dimension: 1" in r.stdout
    two_simples = A2 + "\nrep\ndims 1 0\n\nrep\ndims 0 1\n"
    path2 = write(tmp_path, "exts.quiver", two_simples)
    r2 = run_cli("ext", path2)
    assert r2.returncode == 0
    assert "Ext^1 dimension: 1" in r2.stdout


def test_hom_wrong_block_count(tmp_path):
    path = write(tmp_path, "a2.quiver", A2)
    r = run_cli("hom", path)
    assert r.returncode == 2
    assert "expects exactly 2" in r.stderr


def test_decompose(tmp_path):
    doubled = A2 + "\nrep\ndims 2 2\nmap a 1 0 0 1\n"
    path = write(tmp_path, "p1p1.quiver", doubled)
    r = run_cli("decompose", path)
    assert r.returncode == 0
    assert "2 indecomposable summand(s)" in r.stdout
    assert r.stdout.count("dim (1, 1)") == 2


def test_exc_enum_json(tmp_path):
    path = write(tmp_path, "a2.quiver", A2)
    r = run_cli("exc-enum", path, "--bound", "2", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["exceptionals"] == [[0, 1], [1, 0], [1, 1]]
    assert doc["bound"] == 2
    assert doc["field"] == "Q"


def test_exc_enum_affine_a2_is_settled(tmp_path):
    """(1, 2, 1) and (2, 1, 2) are real roots without an exceptional module;
    enumeration leaves no root undecided and exits 0."""
    path = write(tmp_path, "affine.quiver", AFFINE_A2)
    r = run_cli("exc-enum", path, "--bound", "5", "--json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert len(doc["exceptionals"]) == 10
    assert [1, 2, 1] not in doc["exceptionals"]
    assert [2, 1, 2] not in doc["exceptionals"]
    assert "unresolved_roots" not in doc


def test_jh_verify_affine_a2_has_no_warning(tmp_path):
    path = write(tmp_path, "affine.quiver", AFFINE_A2)
    r = run_cli("jh-verify", path, "--bound", "4")
    assert r.returncode == 0, r.stderr
    assert r.stdout.rstrip().endswith("PASS")
    assert "warning" not in r.stdout


def test_seq_enum_kronecker(tmp_path):
    path = write(tmp_path, "kr.quiver", KRONECKER)
    r = run_cli("seq-enum", path, "--bound", "3", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["sequence_count"] == 3
    assert [[1, 0], [0, 1]] in doc["sequences"]


def test_tilting_check(tmp_path):
    path = write(tmp_path, "t.quiver", P1_S1)
    r = run_cli("tilting-check", path)
    assert r.returncode == 0
    assert "tilting: yes" in r.stdout
    assert "coresolution check: ok" in r.stdout
    bad = A2 + "\nrep\ndims 1 0\n\nrep\ndims 0 1\n"
    path2 = write(tmp_path, "nt.quiver", bad)
    r2 = run_cli("tilting-check", path2)
    assert r2.returncode == 0
    assert "tilting: no" in r2.stdout


def test_perp(tmp_path):
    s1 = A2 + "\nrep\ndims 1 0\n"
    path = write(tmp_path, "s1.quiver", s1)
    r = run_cli("perp", path, "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["branch"] == "bongartz"
    assert doc["algebra"]["vertices"] == 1
    assert doc["projectives"] == [[1, 1]]


def test_perp_rejects_non_exceptional(tmp_path):
    reg = KRONECKER + "\nrep\ndims 1 1\nmap a 1\nmap b 1\n"
    path = write(tmp_path, "reg.quiver", reg)
    r = run_cli("perp", path)
    assert r.returncode == 2
    assert "exceptional" in r.stderr


def test_bongartz(tmp_path):
    s1 = A3 + "\nrep\ndims 1 0 0\n"
    path = write(tmp_path, "s1.quiver", s1)
    r = run_cli("bongartz", path)
    assert r.returncode == 0
    assert "complement dim (2, 2, 3)" in r.stdout
    proj = A3 + "\nrep\ndims 1 1 1\nmap a1 1\nmap a2 1\n"
    path2 = write(tmp_path, "p1.quiver", proj)
    r2 = run_cli("bongartz", path2)
    assert r2.returncode == 2
    assert "projective" in r2.stderr


def test_stratify_standard(tmp_path):
    path = write(tmp_path, "a3.quiver", A3)
    r = run_cli("stratify", path)
    assert r.returncode == 0
    assert "chain length 3" in r.stdout
    assert "factors {1,1,1}" in r.stdout
    assert "End(S_3)" in r.stdout


def test_stratify_along_given_sequence(tmp_path):
    seq = A2 + "\nrep\ndims 1 0\n\nrep\ndims 0 1\n"
    path = write(tmp_path, "seq.quiver", seq)
    r = run_cli("stratify", path, "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["length"] == 2
    assert doc["generators"] == [[0, 1]]


def test_stratify_rejects_non_sequence(tmp_path):
    seq = A2 + "\nrep\ndims 0 1\n\nrep\ndims 1 0\n"
    path = write(tmp_path, "bad.quiver", seq)
    r = run_cli("stratify", path)
    assert r.returncode == 2
    assert "perpendicular" in r.stderr


def test_ringel_check(tmp_path):
    path = write(tmp_path, "t.quiver", P1_S1)
    r = run_cli("ringel-check", path)
    assert r.returncode == 0
    assert "PASS" in r.stdout
    bad = A2 + "\nrep\ndims 1 0\n"
    path2 = write(tmp_path, "bad.quiver", bad)
    r2 = run_cli("ringel-check", path2)
    assert r2.returncode == 2
    assert "not tilting" in r2.stderr


def test_kronecker_demo():
    r = run_cli("kronecker-demo", "--prime", "5")
    assert r.returncode == 0
    assert "6 regular simples over F_5" in r.stdout
    assert "PASS" in r.stdout


def test_kronecker_demo_rejects_input_file(tmp_path):
    path = write(tmp_path, "a2.quiver", A2)
    r = run_cli("kronecker-demo", path)
    assert r.returncode == 2


def test_empty_file_is_a_parse_error(tmp_path):
    path = write(tmp_path, "empty.quiver", "")
    r = run_cli("jh-verify", path)
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_parse_error_cites_line(tmp_path):
    text = "field Q\nvertices 2\narrow a 1 oops\n"
    path = write(tmp_path, "bad.quiver", text)
    r = run_cli("stratify", path)
    assert r.returncode == 2
    assert "line 3" in r.stderr


def test_missing_file(tmp_path):
    r = run_cli("hom", str(tmp_path / "nope.quiver"))
    assert r.returncode == 2


def test_machine_output_is_byte_identical(tmp_path):
    path = write(tmp_path, "kr.quiver", KRONECKER)
    a = run_cli("seq-enum", path, "--bound", "3", "--seed", "1", "--json")
    b = run_cli("seq-enum", path, "--bound", "3", "--seed", "1", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# SHA-256 of `jh-verify --json --seed 1` stdout, pinned so that changes to
# the perpendicular-category machinery cannot alter the report bytes.
JH_GOLDENS = [
    ("a4.quiver",
     "field Q\nvertices 4\narrow a 1 2\narrow b 2 3\narrow c 3 4\n",
     ["--bound", "4"],
     "f1bd5f884d2257187f02c9572367176b23eed945e4efde23bf8eb15d2281668b"),
    ("d4.quiver",
     "field Q\nvertices 4\narrow a 1 4\narrow b 2 4\narrow c 3 4\n",
     ["--prime", "3", "--bound", "5"],
     "a4d761ec52f1b89def78944e98ccbb6166de102b026a16538b129bfba98eefca"),
    ("kr.quiver", KRONECKER, ["--bound", "5"],
     "ce51b58fb3e28112fc62840fd5b8dfa245bd5fbd5fd7b792b3689ebd22c80d29"),
]


@pytest.mark.parametrize("name,text,flags,digest", JH_GOLDENS,
                         ids=[g[0] for g in JH_GOLDENS])
def test_jh_verify_json_golden(tmp_path, name, text, flags, digest):
    path = write(tmp_path, name, text)
    r = run_cli("jh-verify", path, "--json", "--seed", "1", *flags)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout.encode("utf-8")).hexdigest() == digest


def test_hash_ignores_comments_and_whitespace(tmp_path):
    noisy = "# A_2\nfield Q\n\nvertices 2\narrow a 1 2   # the arrow\n"
    p1 = write(tmp_path, "clean.quiver", A2)
    p2 = write(tmp_path, "noisy.quiver", noisy)
    a = json.loads(run_cli("exc-enum", p1, "--json").stdout)
    b = json.loads(run_cli("exc-enum", p2, "--json").stdout)
    assert a["input_hash"] == b["input_hash"]


def test_prime_flag_overrides_field(tmp_path):
    path = write(tmp_path, "a2.quiver", A2)
    r = run_cli("exc-enum", path, "--bound", "2", "--prime", "5", "--json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["field"] == "F5"
    assert doc["exceptionals"] == [[0, 1], [1, 0], [1, 1]]


def test_prime_flag_rejects_composite(tmp_path):
    path = write(tmp_path, "a2.quiver", A2)
    r = run_cli("exc-enum", path, "--prime", "4")
    assert r.returncode == 2


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_bound_below_one_is_usage_error(tmp_path, capsys, bound):
    path = write(tmp_path, "a2.quiver", A2)
    assert cli.main(["exc-enum", path, "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--bound must be at least 1" in captured.err


def test_unknown_verb_is_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2

"""End-to-end command-line tests via subprocess."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from strata import cli, exceptional, perpcat, repcat, strat
from strata.quiver import parse_quiver_text
from strata.repcat import UndecidedError


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


def generalized_kronecker(r):
    arrows = "".join(f"arrow a{i} 1 2\n" for i in range(1, r + 1))
    return f"field Q\nvertices 2\n{arrows}"


def kronecker_roots(r, bound):
    """The real roots of the r-Kronecker quiver within the bound: (a_k,
    a_{k+1}) and its reverse, with a_0 = 0, a_1 = 1 and
    a_{k+1} = r a_k - a_{k-1}."""
    a = [0, 1]
    while a[-2] + a[-1] <= bound:
        a.append(r * a[-1] - a[-2])
    return {d for k in range(len(a) - 1) for d in ((a[k], a[k + 1]), (a[k + 1], a[k]))
            if sum(d) <= bound}


@pytest.mark.parametrize("r,bound,count", [(3, 12, 5), (2, 9, 9)],
                         ids=["3-kronecker", "kronecker"])
def test_jh_verify_generalized_kronecker(tmp_path, r, bound, count):
    """Exceptional pairs are the neighbours of a chain of the real roots, so
    the sequences number one less than the roots within the bound."""
    assert len(kronecker_roots(r, bound)) - 1 == count
    path = write(tmp_path, "kr.quiver", generalized_kronecker(r))
    res = run_cli("jh-verify", path, "--bound", str(bound), "--json")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["pass"] is True
    assert doc["sequence_count"] == count
    assert doc["warnings"] == []


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


A4 = "field Q\nvertices 4\narrow a 1 2\narrow b 2 3\narrow c 3 4\n"
D4 = "field Q\nvertices 4\narrow a 1 4\narrow b 2 4\narrow c 3 4\n"
D5 = "field Q\nvertices 5\narrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 3 5\n"

# the tilting module (1,1,1) + (1,1,0) + (1,0,0) of A_3
A3_TILTING = A3 + """
rep
dims 1 1 1
map a1 1
map a2 1

rep
dims 1 1 0
map a1 1

rep
dims 1 0 0
"""
# (1,1,1) + (0,0,1) of A_3: rigid, not tilting
A3_RIGID = A3 + """
rep
dims 1 1 1
map a1 1
map a2 1

rep
dims 0 0 1
"""
# P_1 + P_2 + S_2 of A_3 under a base change
A3_DECOMPOSE = A3 + """
rep
dims 1 3 2
map a1 -3/2 3/2 6
map a2 14/3 -12 4 -4/3 3 -1
"""
A3_S1 = A3 + "\nrep\ndims 1 0 0\n"
KRONECKER_21 = KRONECKER + "\nrep\ndims 2 1\nmap a 1 0\nmap b 0 1\n"
A4_INTERVAL = A4 + "\nrep\ndims 0 1 1 0\nmap b 1\n"
# the exceptional (5, 6) of the Kronecker quiver, as
# enumerate_exceptional(kronecker_quiver(), QQ, 11) finds it; its Bongartz
# complement (36, 45) is 9 copies of (4, 5)
KRONECKER_56 = KRONECKER + """
rep
dims 5 6
map a 1 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 1 0 0 0 0 0 0 0 1 0 0 0 -1 0
map b 0 0 0 0 0 0 1 0 0 0 -1 0 0 0 0 0 0 0 1 0 0 0 -1 0 0 0 0 0 0 1
"""
# the preprojective tilting module (2,3) + (3,4) of the Kronecker quiver, as
# enumerate_exceptional(kronecker_quiver(), QQ, 7) finds them; its T_1 has
# dims (30, 40), so Ext^1(T_1, T_1) is a 2400 x 2500 Hom system
KRONECKER_TILTING = KRONECKER + """
rep
dims 2 3
map a 0 0 0 1 -1 0
map b 1 0 0 0 0 1

rep
dims 3 4
map a 1 0 0 0 0 0 0 0 1 0 -1 0
map b 0 0 0 0 1 0 -1 0 0 0 0 1
"""
# M = (1,2,0,1,0) and N = (0,1,2,1,0) of D_5 vanish at different vertices:
# for (M, N) the block of arrow c is empty on the M side and that of arrow d
# on both sides; Hom is 1 and Ext^1 is 3
D5_PAIR = D5 + """
rep
dims 1 2 0 1 0
map a 1 -2/3

rep
dims 0 1 2 1 0
map b 3 1/2
map c 1 -1
"""

# (id, verb, input text, flags, SHA-256 of `--json --seed 1` stdout), pinned
# so that changes to the machinery under a verb cannot alter its report bytes.
CLI_GOLDENS = [
    ("jh-verify-a4", "jh-verify", A4, ["--bound", "4"],
     "f1bd5f884d2257187f02c9572367176b23eed945e4efde23bf8eb15d2281668b"),
    ("jh-verify-d4", "jh-verify", D4, ["--prime", "3", "--bound", "5"],
     "a4d761ec52f1b89def78944e98ccbb6166de102b026a16538b129bfba98eefca"),
    ("jh-verify-kr", "jh-verify", KRONECKER, ["--bound", "5"],
     "ce51b58fb3e28112fc62840fd5b8dfa245bd5fbd5fd7b792b3689ebd22c80d29"),
    # 15 sequences; every Bongartz part is isotypic, certified by Hom(X, E)
    ("jh-verify-kr15", "jh-verify", KRONECKER, ["--bound", "15"],
     "96811ef3072ebd36ed46eb868a955c56684802a5609f13eb6ea25a5542af2094"),
    # 2048 sequences: pins the sequence search and the chains on a larger set
    ("jh-verify-d5", "jh-verify", D5, ["--prime", "3", "--bound", "7"],
     "35d4aefc2ca36e8ff866bf2f0970351b9b3603d038ec938046c73dbe322b801d"),
    ("hom-d5-pair", "hom", D5_PAIR, [],
     "6d63b2523b3438bd79f38de8dc50ff57a84d1729ebec6a706a743d682048ad44"),
    ("ext-d5-pair", "ext", D5_PAIR, [],
     "e4bad5efc0521e500c86cf760b0d76720906cc7acc614d31ec6ce5dbb433f570"),
    ("decompose-a3", "decompose", A3_DECOMPOSE, [],
     "05a07b45f28eb90331bcbcf70e3303d112b3b22fa9b26ebca58aaa94ebf21415"),
    ("seq-enum-a4", "seq-enum", A4, [],
     "bf733c8e701cc782dcd3448dbb86e03c9b5a32a2eb668c268912541b1d9fdd4d"),
    ("exc-enum-kr", "exc-enum", KRONECKER, ["--bound", "9"],
     "5d091079fbd86b95b5deb2377f4b296aeed427b08cfad8550ece0e20d552250b"),
    ("tilting-check-a3", "tilting-check", A3_TILTING, [],
     "2a32c5d0db4a9d770c901be9de9b2dec8392c5672856f0b08bbb6d74edcbb1aa"),
    ("tilting-check-kr", "tilting-check", KRONECKER_TILTING, [],
     "b22eef2b1f4d09aa111e067c2b9a000e22778af505d06cf9d51e5d67e36688ba"),
    ("ringel-check-a3", "ringel-check", A3_TILTING, [],
     "b2c3630145683b0dda60551d6c09cb5caefd30e51984c0eb246d9e88304e7404"),
    ("stratify-d4", "stratify", D4, [],
     "9fe6836e56bb0a59af40f003f4df0b0b6e87c0633192ebf3a977b19c7f93f0a4"),
    ("perp-a3-s1", "perp", A3_S1, [],
     "ab55aa835acd2832a0d481f7a3b46673d91c6b79c6ff5e7648a0c4f3c65ebbea"),
    ("perp-kr-21", "perp", KRONECKER_21, [],
     "43826e630dd8b2963666609b12ec2d459603c5ece95bc8942d1629bc5c5bf2da"),
    ("perp-a4-0110", "perp", A4_INTERVAL, [],
     "be78e7d27ef929c67ba3949d90876dd1e5e47a788a002912262e960f54897b9d"),
    ("bongartz-a3-s1", "bongartz", A3_S1, [],
     "7d03dd8b8eccfc538e6e9a17411c57cab9ea4da89afc04756572f74da582da75"),
    ("bongartz-kr-21", "bongartz", KRONECKER_21, [],
     "2dab71df5bbd951ead7219773d5bd0cb00225c31572859d8097db48f6e3ddfc6"),
    ("bongartz-kr-56", "bongartz", KRONECKER_56, [],
     "100964150503f3d58c10a48e4faf769716b3b99bb2c9be83016168fbcefd13bb"),
]


@pytest.mark.parametrize("verb,text,flags,digest", [g[1:] for g in CLI_GOLDENS],
                         ids=[g[0] for g in CLI_GOLDENS])
def test_json_golden(tmp_path, capsys, verb, text, flags, digest):
    path = write(tmp_path, "in.quiver", text)
    code = cli.main([verb, path, "--json", "--seed", "1", *flags])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_bongartz_never_decomposes(tmp_path, capsys, monkeypatch):
    """The verb reads the summands that perp_algebra certifies: on the
    Kronecker (5, 6) no module is decomposed, whatever the seed."""
    seen = []
    real = repcat.decompose

    def counting(M, *args, **kwargs):
        seen.append(M.dims)
        return real(M, *args, **kwargs)

    for module in (cli, exceptional, perpcat, repcat):
        monkeypatch.setattr(module, "decompose", counting)
    path = write(tmp_path, "kr56.quiver", KRONECKER_56)
    for seed in ("0", "1", "7"):
        assert cli.main(["bongartz", path, "--json", "--seed", seed]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summands"] == [[4, 5]] * 9
    assert seen == []


@pytest.mark.parametrize("text,prime,bound,count", [(A4, None, 4, 6), (D4, 3, 5, 8)],
                         ids=["A4", "D4-F3"])
def test_bongartz_matches_decomposing_every_part(tmp_path, capsys, text, prime, bound, count):
    """Oracle: on every non-projective exceptional the verb's summands,
    multiplicities included, are those of decomposing every Bongartz part.
    Projective and non-exceptional inputs are rejected with status 2."""
    from helpers import bongartz_summands_by_decompose

    flags = [] if prime is None else ["--prime", str(prime)]
    field, quiver, _, _ = cli._load_input(write(tmp_path, "q.quiver", text), prime)
    checked = 0
    for x in exceptional.enumerate_exceptional(quiver, field, bound).reps:
        path = write(tmp_path, "x.quiver", text + "\n" + cli._canonical_rep(x))
        code = cli.main(["bongartz", path, "--json", *flags])
        out, err = capsys.readouterr()
        if perpcat._deleted_vertex(x) is not None:
            assert code == 2 and "X is projective" in err
            continue
        assert code == 0, err
        doc = json.loads(out)
        want = bongartz_summands_by_decompose(x)
        assert doc["summands"] == [list(p.dims) for p in want], x.dims
        assert doc["complement_dims"] == list(perpcat.bongartz_complement(x).dims)
        checked += 1
    assert checked == count
    path = write(tmp_path, "s1s1.quiver", text + "\nrep\ndims 2 0 0 0\n")
    assert cli.main(["bongartz", path, *flags]) == 2
    assert "needs an exceptional X" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["bongartz", "perp"])
def test_failed_certificate_is_a_failed_check(tmp_path, capsys, monkeypatch, verb):
    """An internal AssertionError, here the isotypic certificate failing on
    the Kronecker (5, 6), is reported as `error: ...` with status 1."""
    monkeypatch.setattr(perpcat, "_isotypic", lambda X, E: False)
    # the presentation memo may hold the presentation of an earlier test
    monkeypatch.setattr(cli, "perp_algebra", perpcat.perp_algebra.__wrapped__)
    path = write(tmp_path, "kr56.quiver", KRONECKER_56)
    assert cli.main([verb, path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Bongartz part of dimension (16, 20) is not 4 copies")


def test_tilting_check_decomposes_t_once(tmp_path, capsys, monkeypatch):
    seen = []

    def counting(M, *args, **kwargs):
        seen.append(M.dims)
        return repcat.decompose(M, *args, **kwargs)

    monkeypatch.setattr(exceptional, "decompose", counting)
    path = write(tmp_path, "t.quiver", A3_TILTING)
    assert cli.main(["tilting-check", path]) == 0
    assert "coresolution check: ok" in capsys.readouterr().out
    assert seen == [(3, 2, 1)]


def test_tilting_check_decomposes_a_rigid_non_tilting_t_never(tmp_path, capsys, monkeypatch):
    """(1,1,1) + (0,0,1) of A_3 is rigid with three closure candidates; the
    verdict comes from them, so nothing is decomposed."""
    seen = []

    def counting(M, *args, **kwargs):
        seen.append(M.dims)
        return repcat.decompose(M, *args, **kwargs)

    monkeypatch.setattr(exceptional, "decompose", counting)
    path = write(tmp_path, "t.quiver", A3_RIGID)
    assert cli.main(["tilting-check", path]) == 0
    assert capsys.readouterr().out.rstrip().endswith("tilting: no")
    assert seen == []


def test_failed_coresolution_is_a_failed_check(tmp_path, capsys, monkeypatch):
    # drop (1,1,1) from the summands: A no longer maps injectively into add T
    def without_p1(T):
        return tuple(d for d in exceptional._tilting_summands(T) if d.dims != (1, 1, 1))

    monkeypatch.setattr(cli, "_tilting_summands", without_p1)
    monkeypatch.setattr(strat, "_tilting_summands", without_p1)
    path = write(tmp_path, "t.quiver", A3_TILTING)
    assert cli.main(["tilting-check", path]) == 1
    assert "coresolution check: failed" in capsys.readouterr().out
    assert cli.main(["tilting-check", path, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["coresolution_ok"] is False
    assert cli.main(["ringel-check", path]) == 1
    assert capsys.readouterr().out.rstrip().endswith("FAIL")
    assert cli.main(["ringel-check", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["coresolution_ok"] is False and doc["pass"] is False



def _split_110(p):
    """(1, 1, 0) of A_3 as the simples (1, 0, 0) and (0, 1, 0), whose Euler
    form <(1, 0, 0), (0, 1, 0)> is -1."""
    if p.dims != (1, 1, 0):
        return [p]
    return [repcat.simple(p.quiver, p.field, 1), repcat.simple(p.quiver, p.field, 2)]


# (decompose corrupted, given its true answer and the module; the invariant
# of the tilting summands it breaks)
TILTING_CORRUPTIONS = [
    # drops (1, 1, 1)
    (lambda parts, T: parts[:-1], "add up to dimension"),
    (lambda parts, T: [T], "is not a real root"),
    (lambda parts, T: [r for p in parts for r in _split_110(p)], "negative Euler form"),
]


@pytest.mark.parametrize("corrupt,message", TILTING_CORRUPTIONS,
                         ids=["sum", "real-root", "pairwise"])
def test_tilting_summand_invariant_catches_a_corrupted_decompose(
    tmp_path, capsys, monkeypatch, corrupt, message
):
    """T = (1,1,1) + (1,1,0) + (1,0,0) of A_3 is tilting. Each corruption of
    its decomposition breaks one invariant of the summand multiset, which
    the library raises as AssertionError and tilting-check reports as a
    failed check."""
    path = write(tmp_path, "t.quiver", A3_TILTING)
    field, q, rest = parse_quiver_text(A3_TILTING)
    T = repcat.direct_sum(repcat.parse_rep_blocks(field, q, rest))
    assert exceptional.is_tilting_module(T)
    real = exceptional.decompose
    monkeypatch.setattr(
        exceptional, "decompose", lambda M, *a, **k: corrupt(real(M, *a, **k), M)
    )
    with pytest.raises(AssertionError, match=message):
        exceptional._tilting_summands(T)
    assert cli.main(["tilting-check", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err


def test_tilting_summands_must_match_the_closure_candidates(tmp_path, capsys, monkeypatch):
    """A closure verdict whose summand dims are not those that decompose
    finds, here (0,1,0) for (1,1,0), fails the cross-check in
    _tilting_summands, and tilting-check and ringel-check report it."""
    path = write(tmp_path, "t.quiver", A3_TILTING)
    field, q, rest = parse_quiver_text(A3_TILTING)
    T = repcat.direct_sum(repcat.parse_rep_blocks(field, q, rest))
    real = exceptional._tilting_dims
    assert sorted(real(T)) == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    monkeypatch.setattr(
        exceptional, "_tilting_dims",
        lambda M: tuple((0, 1, 0) if d == (1, 1, 0) else d for d in real(M)),
    )
    message = "not the closure's"
    with pytest.raises(AssertionError, match=message):
        exceptional._tilting_summands(T)
    for verb in ("tilting-check", "ringel-check"):
        assert cli.main([verb, path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err

def _reverse_gram_projectives(monkeypatch):
    """Check each Bongartz presentation's Euler form with its projectives
    reversed, which fails wherever the presented quiver has a path."""
    real = perpcat._check_euler_gram
    monkeypatch.setattr(
        perpcat, "_check_euler_gram", lambda quiver, ps: real(quiver, tuple(reversed(ps)))
    )
    # the presentation memo may hold the presentations of earlier tests
    monkeypatch.setattr(strat, "perp_algebra", perpcat.perp_algebra.__wrapped__)


def _assert_on_p2(monkeypatch):
    """perp_algebra fails an internal check on P_2 = (0, 1, 1, 1) of A_4."""
    real = strat.perp_algebra

    def broken(X):
        if X.dims == (0, 1, 1, 1):
            raise AssertionError("broken presentation of P_2")
        return real(X)

    monkeypatch.setattr(strat, "perp_algebra", broken)


@pytest.mark.parametrize("mutate,message", [
    (_reverse_gram_projectives, "<dim P'_"),
    (_assert_on_p2, "broken presentation of P_2"),
], ids=["euler-gram", "assertion"])
def test_broken_chain_is_a_failed_check(tmp_path, capsys, monkeypatch, mutate, message):
    """A chain that raises ValueError or AssertionError fails jh-verify with
    exit 1 and one warning naming its sequence; the other chains stay, and
    the report has the keys of a passing one."""
    path = write(tmp_path, "a4.quiver", A4)
    assert cli.main(["jh-verify", path, "--json"]) == 0
    keys = set(json.loads(capsys.readouterr().out))
    mutate(monkeypatch)
    assert cli.main(["jh-verify", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert set(doc) == keys
    assert doc["warnings"]
    assert doc["chains"]
    assert len(doc["chains"]) + len(doc["warnings"]) == doc["sequence_count"] == 125
    for w in doc["warnings"]:
        index, text = w.split(": ", 1)
        assert index.startswith("sequence ") and 1 <= int(index[9:]) <= 125
        assert text.startswith(message)
    assert cli.main(["jh-verify", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "warning: sequence " in out


def test_wrong_factor_is_a_failed_check(tmp_path, capsys, monkeypatch):
    """With every peeled member's recorded End one larger, no chain raises,
    but each chain's factor multiset differs from that of the simples: the
    factor comparison alone makes jh-verify report FAIL and exit 1."""
    real = strat.perp_algebra

    def end_plus_one(X):
        pres = real(X)
        return dataclasses.replace(pres, source_end_dim=pres.source_end_dim + 1)

    monkeypatch.setattr(strat, "perp_algebra", end_plus_one)
    path = write(tmp_path, "a3.quiver", A3)
    assert cli.main(["jh-verify", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and doc["warnings"] == []
    assert len(doc["chains"]) == doc["sequence_count"] == 16
    assert all(sorted(c["factors"]) == [1, 2, 2] for c in doc["chains"])
    assert cli.main(["jh-verify", path]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_undecided_chain_exits_3(tmp_path, capsys, monkeypatch):
    def undecided(X):
        raise UndecidedError("no split and no certificate")

    monkeypatch.setattr(strat, "perp_algebra", undecided)
    path = write(tmp_path, "a4.quiver", A4)
    assert cli.main(["jh-verify", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("undecided:")


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


@pytest.mark.parametrize("verb,needs_file", [
    ("jh-verify", True),
    ("kronecker-demo", False),
])
def test_prime_zero_is_usage_error(tmp_path, capsys, verb, needs_file):
    # --prime 0 used to run over Q and exit 0
    args = [verb, write(tmp_path, "a3.quiver", A3)] if needs_file else [verb]
    assert cli.main([*args, "--prime", "0", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "characteristic 0 is not prime" in captured.err


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


@pytest.mark.parametrize("header,flags", [
    ("field Fp 5\nvertices 2\narrow a 1 2\n", []),
    (A2, ["--prime", "5"]),
], ids=["file-field", "prime-flag"])
def test_denominator_divisible_by_p_is_a_parse_error(tmp_path, capsys, header, flags):
    text = header + "\nrep\ndims 1 1\nmap a 1/5\n\nrep\ndims 1 1\nmap a 1\n"
    path = write(tmp_path, "bad.quiver", text)
    assert cli.main(["hom", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 7" in captured.err and "bad scalar '1/5'" in captured.err


def test_kronecker_demo_prime_above_cap_is_usage_error(capsys):
    assert cli.main(["kronecker-demo", "--prime", "257"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 251" in captured.err


def test_undecided_decomposition_exits_3(tmp_path, capsys, monkeypatch):
    def undecided(M, seed=0):
        raise UndecidedError("no split and no certificate")

    monkeypatch.setattr(cli, "decompose", undecided)
    path = write(tmp_path, "p1.quiver", A2 + "\nrep\ndims 1 1\nmap a 1\n")
    assert cli.main(["decompose", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("undecided:")

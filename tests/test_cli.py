import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinor_forge import cli
from spinor_forge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "spin7_pure" in out and "qk" in out


def test_verify_pure_catalog(capsys):
    code, out, _ = run(capsys, "verify", "pure", "--catalog", "spin7_pure")
    assert code == 0
    assert out.strip() == "pure: true"


def test_verify_pure_fails_on_reducing_spinor(capsys):
    code, out, _ = run(capsys, "verify", "pure", "--catalog", "spin7_reducing")
    assert code == 1
    assert out.strip() == "pure: false"


@pytest.mark.parametrize("m", [6, 7])
def test_verify_pure_qk_near_the_cap(capsys, m):
    """qk(m) at n = 4m = 24 and 28: every pair certified pure through the CLI."""
    code, out, _ = run(capsys, "verify", "pure", "--catalog", "qk", "--m", str(m),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["pairs"] == {pair: {"defect_norm2": "0", "square_ok": True}
                                for pair in ("1,2", "1,3", "2,3")}


@pytest.mark.parametrize("kind", ["pure", "reducing"])
def test_verify_dense_wire_matches_its_golden_file(capsys, kind):
    """A (12, 3, 2) wire with 64 coefficients over denominators up to 12:
    both certificates fail, and each pair's exact defect_norm2 is the
    pinned one."""
    data = Path(__file__).parent / "data"
    code, out, _ = run(capsys, "verify", kind, "--in", str(data / "dense_12_3_2.json"),
                       "--format", "json")
    assert code == 1
    assert out == (data / f"dense_12_3_2_{kind}.json").read_text()


def test_eta_of_the_dense_wire_matches_its_golden_file(capsys):
    """All three eta of the dense (12, 3, 2) wire, whose 64 coefficients
    fall into 4 groups by their twist bits, pinned exactly."""
    data = Path(__file__).parent / "data"
    code, out, _ = run(capsys, "eta", "--in", str(data / "dense_12_3_2.json"), "--format", "json")
    assert code == 0
    assert out == (data / "dense_12_3_2_eta.json").read_text()


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "reducing", "--catalog", "generic",
                       "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["pairs"]["1,2"]["defect_norm2"] == "0"


def test_eta_text_golden(capsys):
    code, out, _ = run(capsys, "eta", "--catalog", "spin7_reducing",
                       "--pair", "1,2", "--format", "text")
    assert code == 0
    assert out.strip() == "e1^e2"


def test_eta_all_pairs_json(capsys):
    code, out, _ = run(capsys, "eta", "--catalog", "qk", "--m", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["1,2"]["terms"] == [
        {"a": 1, "b": 2, "coeff": "1"}, {"a": 3, "b": 4, "coeff": "1"}]


def test_catalog_emit_and_annihilator(tmp_path, capsys):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    assert run(capsys, "catalog", "emit", "--name", "spin7_pure", "-o", str(p1))[0] == 0
    assert run(capsys, "catalog", "emit", "--name", "spin7_reducing", "-o", str(p2))[0] == 0
    code, out, _ = run(capsys, "annihilator", "--in", str(p1), "--in", str(p2), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 14 and payload["closed"] is True


def test_verify_spinc_file(tmp_path, capsys):
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"n": 4, "coeffs": [{"eps": [1, 1], "re": "1", "im": "0"}]}))
    code, out, _ = run(capsys, "verify", "spinc", "--in", str(proto))
    assert code == 0 and "true" in out


def test_verify_spinc_rejects_catalog(capsys):
    code, _, err = run(capsys, "verify", "spinc", "--catalog", "spin7_pure")
    assert code == 2 and "untwisted" in err


def test_zero_spinor_rejected(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 4, "coeffs": []}))
    code, _, err = run(capsys, "verify", "spinc", "--in", str(zero))
    assert code == 2 and "zero" in err.lower()


def test_repeated_basis_index_exits_2(tmp_path, capsys):
    """A wire that repeats a (spin, twist) index is refused (exit 2), not
    decoded as the last entry's spinor and judged (exit 1)."""
    entry = {"spin": [1, 1], "twist": [[1]], "re": "1", "im": "0"}
    wire = {"n": 4, "r": 3, "m": 1, "scale2": "1", "coeffs": [entry, {**entry, "re": "-1"}]}
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(wire))
    code, out, err = run(capsys, "verify", "reducing", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "repeated basis index" in err


def test_zero_twisted_spinor_rejected(tmp_path, capsys):
    from spinor_forge.serialize import scaled_spinor_to_json
    from spinor_forge.twisted import ScaledSpinor

    zero = tmp_path / "zero_twisted.json"
    zero.write_text(json.dumps(scaled_spinor_to_json(ScaledSpinor(4, 3, 1, {}))))
    code, _, err = run(capsys, "verify", "pure", "--in", str(zero))
    assert code == 2 and "nonzero" in err.lower()


def test_malformed_json_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "verify", "pure", "--in", str(bad))
    assert code == 2 and "malformed" in err


def test_malformed_wire_object_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad_coeffs.json"
    bad.write_text(json.dumps({"n": 4, "r": 3, "m": 1, "scale2": "1", "coeffs": [1]}))
    code, _, err = run(capsys, "verify", "pure", "--in", str(bad))
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_negative_dimension_exits_2(tmp_path, capsys):
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps({"n": -4, "r": -1, "m": 2, "scale2": "1", "coeffs": []}))
    code, _, err = run(capsys, "eta", "--in", str(bad))
    assert code == 2 and "n must be >= 0" in err
    assert "Traceback" not in err and "wrong shape" not in err


def test_unknown_catalog_name(capsys):
    code, _, err = run(capsys, "verify", "pure", "--catalog", "nope")
    assert code == 2 and "unknown catalog name" in err


def test_commutant_verb(capsys):
    code, out, _ = run(capsys, "commutant", "--catalog", "qk", "--m", "1", "--skew")
    assert code == 0 and out.strip() == "dim = 3"


def test_frame_test_verb(capsys):
    code, out, _ = run(capsys, "frame-test", "--catalog", "qk", "--m", "1",
                       "--seed", "1", "--trials", "2")
    assert code == 0
    assert out.count("trial") == 2 and "all invariant" in out


@pytest.mark.parametrize("args", [("--catalog", "spin7_reducing"), ("--catalog", "qk", "--m", "2")],
                         ids=["spin7_reducing", "qk2"])
def test_frame_test_verdicts_survive_frame_rotations(capsys, args):
    """The reducing verdict of spin7_reducing and the pure verdict of qk(2)
    are the same in three seeded rotated frames as in the standard one."""
    code, out, _ = run(capsys, "frame-test", *args, "--seed", "3", "--trials", "3")
    assert (code, out.splitlines()) == (
        0, [f"trial {t}: ok" for t in (1, 2, 3)] + ["all invariant"])


def test_frame_test_compares_each_trial_with_the_standard_frame(capsys, monkeypatch):
    """A certificate whose verdict differs only in the standard frame fails
    every trial."""
    real = cli._certify

    def flipped(phi, kind, frames=(None,)):
        (ok, per), *rest = real(phi, kind, frames)
        return [(not ok, per), *rest]

    monkeypatch.setattr(cli, "_certify", flipped)
    code, out, _ = run(capsys, "frame-test", "--catalog", "spin7_reducing",
                       "--seed", "3", "--trials", "3")
    assert code == 1
    assert out.splitlines() == [f"trial {t}: FAIL" for t in (1, 2, 3)] + [
        "verdict changed under rotation"]


def test_frame_test_refuses_fewer_than_one_trial(capsys):
    # no trial is no evidence: refused instead of reporting "all invariant"
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "frame-test", "--catalog", "qk", "--m", "1",
                             "--trials", trials)
        assert code == 2 and out == ""
        assert err == f"error: --trials must be at least 1, got {trials}\n"


def test_frame_test_refuses_more_than_the_cap_before_any_draw(capsys, monkeypatch):
    """Every frame is drawn before the first is certified, so a count over
    ``MAX_TRIALS`` is refused with exit 2 before the catalog entry is built
    or any frame is drawn."""
    def refuse(*args, **kwargs):
        raise AssertionError("built before the trial count was checked")
    monkeypatch.setattr(cli.catalog, "build", refuse)
    monkeypatch.setattr(cli, "random_so_matrix", refuse)
    trials = str(cli.MAX_TRIALS + 1)
    code, out, err = run(capsys, "frame-test", "--catalog", "qk", "--m", "1", "--trials", trials)
    assert code == 2 and out == ""
    assert err == f"error: --trials must be at most {cli.MAX_TRIALS}, got {trials}\n"


def test_eta_output_deterministic(capsys):
    _, out1, _ = run(capsys, "eta", "--catalog", "spin7_pure", "--format", "json")
    _, out2, _ = run(capsys, "eta", "--catalog", "spin7_pure", "--format", "json")
    assert out1 == out2


def test_bad_pair_argument(capsys):
    code, _, err = run(capsys, "eta", "--catalog", "spin7_pure", "--pair", "xy")
    assert code == 2 and "--pair" in err


def test_report_json_schema(capsys, monkeypatch):
    from spinor_forge import report as report_mod

    rows = [report_mod.CriterionRow("alpha", "x", "y", True),
            report_mod.CriterionRow("beta", "x", "z", False)]
    monkeypatch.setattr(report_mod, "CRITERIA",
                        [lambda r=r: r for r in rows])
    code, out, _ = run(capsys, "report", "--json")
    assert code == 1  # one failing row
    payload = json.loads(out)
    assert payload == [
        {"name": "alpha", "expected": "x", "computed": "y", "pass": True},
        {"name": "beta", "expected": "x", "computed": "z", "pass": False},
    ]


def test_report_text_banner_and_plain(capsys, monkeypatch):
    from spinor_forge import report as report_mod

    monkeypatch.setattr(report_mod, "CRITERIA",
                        [lambda: report_mod.CriterionRow("alpha", "x", "y", True)])
    code, out, _ = run(capsys, "report")
    assert code == 0 and out.startswith("spinor-forge ")
    code, out, _ = run(capsys, "report", "--plain")
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("flag, golden", [("--plain", "report_plain.txt"), ("--json", "report.json")],
                         ids=["plain", "json"])
def test_report_matches_its_golden_file(capsys, flag, golden):
    """The full report through the one writer, byte for byte: every row's
    name, width and computed text, and the closing count."""
    code, out, _ = run(capsys, "report", flag)
    assert (code, out) == (0, (Path(__file__).parent / "data" / golden).read_text())


# What each rendering may not build: JSON mode renders no text, and text
# mode builds no JSON payload and no dense commutant matrix.
_TEXT_ONLY = ("render_ambient", "render_two_form")
_JSON_ONLY = ("subalgebra_to_json", "two_form_to_json")


@pytest.mark.parametrize("argv", [
    ("annihilator", "--in", "<sp7>"),
    ("eta", "--catalog", "qk", "--m", "1"),
    ("eta", "--catalog", "qk", "--m", "1", "--pair", "1,3"),
    ("commutant", "--catalog", "qk", "--m", "1"),
    ("commutant", "--catalog", "qk", "--m", "1", "--skew"),
    ("verify", "pure", "--catalog", "spin7_pure"),
    ("report", "--plain"),
], ids=["annihilator", "eta", "eta_pair", "commutant", "commutant_skew", "verify", "report"])
@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_each_mode_builds_only_its_own_rendering(tmp_path, capsys, monkeypatch, argv, json_mode):
    sp7 = tmp_path / "sp7.json"
    assert run(capsys, "catalog", "emit", "--name", "spin7_pure", "-o", str(sp7))[0] == 0
    called, commutant_bases = [], []
    for name in _TEXT_ONLY + _JSON_ONLY:
        monkeypatch.setattr(cli, name, lambda *a, _f=getattr(cli, name), _n=name:
                            called.append(_n) or _f(*a))

    def spy_commutant(*a, _f=cli.commutant, **kw):
        dim, basis = _f(*a, **kw)
        commutant_bases.append(basis)
        return dim, basis

    monkeypatch.setattr(cli, "commutant", spy_commutant)
    if argv[0] == "report":  # one cheap row keeps the report test quick
        from spinor_forge import report as report_mod
        monkeypatch.setattr(report_mod, "CRITERIA",
                            [lambda: report_mod.CriterionRow("alpha", "x", "y", True)])
    argv = [str(sp7) if a == "<sp7>" else a for a in argv]
    if json_mode:
        argv += ["--format", "json"] if argv[0] in ("eta", "verify") else ["--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert not set(called) & set(_TEXT_ONLY if json_mode else _JSON_ONLY), called
    if argv[0] in ("annihilator", "eta"):
        assert called, "the spies see the rendering asked for"
    assert len(commutant_bases) == (argv[0] == "commutant")
    for basis in commutant_bases:
        assert basis and all(("mat" in vars(b)) is json_mode for b in basis)


def test_catalog_emit_to_unwritable_path_exits_2(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, _, err = run(capsys, "catalog", "emit", "--name", "qk", "--m", "1",
                           "-o", str(target))
        assert code == 2 and err.startswith("error: cannot write") and "Traceback" not in err


@pytest.mark.parametrize("argv, unbuffered", [
    (("commutant", "--catalog", "spin7_pure", "--json"), True),  # print meets the pipe
    (("frame-test", "--catalog", "qk", "--m", "1", "--trials", "2"), False),  # the last flush
])
def test_closed_stdout_exits_2_with_one_error_line(argv, unbuffered):
    """A reader that has gone away is an output error, not a failed claim:
    exit 2 and one ``error:`` line, no traceback."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "spinor_forge.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: cannot write to stdout: Broken pipe"]


def _run_with_fd1_closed(*argv):
    """The CLI in a subprocess whose fd 1 is closed before it starts, so
    Python sets ``sys.stdout`` to None."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "spinor_forge.cli", *argv],
                           preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                           text=True, env=env)


@pytest.mark.parametrize("argv", [
    ("commutant", "--catalog", "spin7_pure", "--json"),  # would exit 0
    ("verify", "pure", "--catalog", "spin7_reducing"),  # would exit 1
    ("frame-test", "--catalog", "spin7_reducing", "--trials", "1"),  # would exit 0
])
def test_stdout_closed_at_start_exits_2_with_one_error_line(argv):
    """A verdict that can be written nowhere is refused before any work:
    exit 2 and one ``error:`` line, no traceback."""
    proc = _run_with_fd1_closed(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: cannot write to stdout: it is closed"]


def test_catalog_emit_to_a_file_runs_with_stdout_closed(tmp_path):
    """``catalog emit -o FILE`` writes nothing to stdout, so a closed fd 1
    does not stop it: exit 0 and the pinned bytes in the file."""
    out = tmp_path / "qk1.json"
    proc = _run_with_fd1_closed("catalog", "emit", "--name", "qk", "--m", "1", "-o", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    data = out.read_bytes()
    assert (["qk", "--m", "1"], len(data), hashlib.sha256(data).hexdigest()) in EMIT_DIGESTS


def test_exponent_rational_exits_2(tmp_path, capsys):
    bad = tmp_path / "exponent.json"
    bad.write_text(json.dumps({"n": 4, "r": 3, "m": 1, "scale2": "1e999999999", "coeffs": []}))
    code, _, err = run(capsys, "verify", "pure", "--in", str(bad))
    assert code == 2 and "exponent" in err and "Traceback" not in err


def test_dimension_cap_exits_2(tmp_path, capsys):
    # m = 9 twist slots of Delta_0 over Delta_2: tiny, but above the cap on m.
    bad = tmp_path / "too_many_slots.json"
    entry = {"spin": [1], "twist": [[]] * 9, "re": "1", "im": "0"}
    bad.write_text(json.dumps({"n": 2, "r": 0, "m": 9, "scale2": "1", "coeffs": [entry]}))
    code, _, err = run(capsys, "annihilator", "--in", str(bad))
    assert code == 2 and "m must be <= 8" in err and "Traceback" not in err
    code, _, err = run(capsys, "catalog", "emit", "--name", "qk", "--m", "9")
    assert code == 2 and "m <= 8" in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    # json raises RecursionError at this depth on CPython 3.10 to 3.13; at
    # depth 2000 it does not on 3.13.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    for verb in (["verify", "pure"], ["verify", "reducing"], ["verify", "spinc"],
                 ["eta"], ["commutant"], ["annihilator"]):
        code, _, err = run(capsys, *verb, "--in", str(deep))
        assert code == 2 and err.startswith("error: malformed JSON"), verb
        assert "Traceback" not in err


# sha256 and length of `catalog emit` stdout for every catalog entry, from
# the tuple-keyed encoder that sorted the coefficient view.
EMIT_DIGESTS = [
    (["qk", "--m", "1"], 373,
     "ea23abccf3f74759c62edf9f85ff171e790764324a7461d7760dc72e0cd255a8"),
    (["qk", "--m", "2"], 1326,
     "f8902a33992ca417a559e95077a471f5bf0456ea9ee003a0f5bc4de22f375fd4"),
    (["qk", "--m", "3"], 5398,
     "d7ddbbb1ba1b3a2fbeded6e0c3b4156e28e8339577c8bca2073761ba5011eec2"),
    (["qk", "--m", "4"], 22678,
     "d5517920482f1b833de9d0298a65108c7a71b8095b499abfc9990d17f4fa97d5"),
    (["qk", "--m", "5"], 95902,
     "814738edf2f96c5df610139f7954f578bf8f533fa020126cc2680dbef994dcb1"),
    (["qk", "--m", "6"], 403782,
     "e328c4bca59fb1f47d356e33aa2e0fc5f0c18a7f47484e4851ad8f4251493672"),
    (["qk", "--m", "7"], 1693660,
     "137c570382c358e720f0e25870bec0e3cca78cc531c3f8c78ebe1ee82c93014c"),
    (["qk", "--m", "8"], 7078438,
     "6461ffb59badcc6eac5bb8aa09f6e0e61b3284d3c69218cfb8759d776945960d"),
    (["spin7_pure"], 1700,
     "9587ab8ffbdf8a70de7cd79c5121d1aaae55d8ef4e67a355f4f28c48589d175f"),
    (["spin7_reducing"], 1686,
     "036e77932c53cdeae998790906b63c2874a3c0d2f7e7fbe47d7f5ce5e3e1ecbe"),
    (["generic", "--n", "2"], 351,
     "49094829d0f818b2ec05b38fb75fb85e3b0336ddccbe60be17f3656d9d102998"),
    (["generic", "--n", "3"], 351,
     "40177d19bd9ee0d4e504ec428c695b5e048dc761e2209eeb8b8378a6005fa85c"),
    (["generic", "--n", "4"], 732,
     "a455932a79cafa07fef8ff96c24f4ebbc7fec80c081b769594bb585add95e9bb"),
    (["generic", "--n", "5"], 732,
     "8d3b6c08f37988f220c5c6802d59f7eee7bab2a384339a0178c8bb083a94d458"),
    (["generic", "--n", "6"], 1594,
     "905442f805753e900ff84ad4b94db9ca06ef47e000163b1d5f14b9c9d652479f"),
    (["generic", "--n", "7"], 1594,
     "d0b0d3c61c831c0eb88617b1f9b86529f2aac302a5f1fb2dc76b2d655574ca0e"),
    (["generic", "--n", "8"], 3519,
     "75e86fd6fea3cca2721f7cf90f81d33dfb688d96d5038e0ae3fa1239dae4815b"),
]


@pytest.mark.parametrize("args,size,digest", EMIT_DIGESTS,
                         ids=["_".join(a for a in e[0] if a[0] != "-") for e in EMIT_DIGESTS])
def test_catalog_emit_bytes_are_pinned(capsys, args, size, digest):
    code, out, _ = run(capsys, "catalog", "emit", "--name", *args)
    data = out.encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (0, size, digest)

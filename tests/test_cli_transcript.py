"""Byte-for-byte replay of a fixed matrix of CLI invocations.

``tests/data/cli_transcript.json`` holds the exit code, stdout and stderr of
every invocation in ``MATRIX``, with the temporary directory written as
``<tmp>``.  The matrix covers every verb but ``report`` (pinned by
``tests/data/report.json`` and ``tests/data/report_plain.txt``) in text
and JSON formats, and every family of bad input: unknown names, hostile
dimensions, unreadable files, malformed JSON and malformed wire objects.

The module needs only the standard library, so the replay, ``replay(tmp_dir)
== json.loads(GOLDEN.read_text())``, also runs under interpreters without
pytest.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spinor_forge.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_transcript.json"

_ENTRY = {"spin": [1, 1], "twist": [[1]], "re": "1", "im": "0"}
_TWISTED = {"n": 4, "r": 3, "m": 1, "scale2": "1", "coeffs": [_ENTRY]}

# Input files written into <tmp> before the replay; qk1.json and sp7.json are
# written by the first invocations of the matrix.
INPUTS = {
    "bad.json": b"{nope",
    "latin1.json": b'{"n": "\xe9"}',
    "bigint.json": b'{"n": ' + b"1" * 5000 + b"}",
    "coeffs1.json": json.dumps({**_TWISTED, "coeffs": [1]}).encode(),
    "negative.json": json.dumps({**_TWISTED, "n": -4, "r": -1, "m": 2, "coeffs": []}).encode(),
    "exponent.json": json.dumps({**_TWISTED, "scale2": "1e999999999"}).encode(),
    "m9.json": json.dumps({"n": 2, "r": 0, "m": 9, "scale2": "1", "coeffs": [
        {"spin": [1], "twist": [[]] * 9, "re": "1", "im": "0"}]}).encode(),
    "zero.json": json.dumps({**_TWISTED, "coeffs": []}).encode(),
    "zero_untwisted.json": json.dumps({"n": 4, "coeffs": []}).encode(),
    "odd_untwisted.json": json.dumps({"n": 3, "coeffs": [
        {"eps": [1], "re": "1", "im": "0"}]}).encode(),
    "r1.json": json.dumps({"n": 4, "r": 1, "m": 1, "scale2": "1", "coeffs": [
        {"spin": [1, 1], "twist": [[]], "re": "1", "im": "0"}]}).encode(),
    "proto.json": json.dumps({"n": 4, "coeffs": [
        {"eps": [1, 1], "re": "1", "im": "0"}]}).encode(),
}

MATRIX = [
    # every verb, text and JSON
    ["catalog", "list"],
    ["catalog", "emit", "--name", "qk", "--m", "1"],
    ["catalog", "emit", "--name", "qk", "--m", "1", "-o", "<tmp>/qk1.json"],
    ["catalog", "emit", "--name", "spin7_pure", "-o", "<tmp>/sp7.json"],
    ["verify", "pure", "--catalog", "spin7_pure"],
    ["verify", "pure", "--catalog", "spin7_reducing", "--format", "json"],
    ["verify", "reducing", "--in", "<tmp>/qk1.json"],
    ["verify", "reducing", "--catalog", "generic", "--n", "3", "--format", "json"],
    ["verify", "spinc", "--in", "<tmp>/proto.json"],
    ["verify", "spinc", "--in", "<tmp>/proto.json", "--format", "json"],
    ["eta", "--catalog", "spin7_reducing", "--pair", "1,2"],
    ["eta", "--in", "<tmp>/qk1.json"],
    ["eta", "--catalog", "qk", "--m", "1", "--format", "json"],
    ["eta", "--catalog", "qk", "--m", "1", "--pair", "1,3", "--format", "json"],
    ["annihilator", "--in", "<tmp>/qk1.json"],
    ["annihilator", "--in", "<tmp>/sp7.json"],
    ["annihilator", "--in", "<tmp>/sp7.json", "--json"],
    ["commutant", "--catalog", "qk", "--m", "1", "--skew"],
    ["commutant", "--catalog", "qk", "--m", "1"],
    ["commutant", "--in", "<tmp>/qk1.json", "--json"],
    ["frame-test", "--catalog", "qk", "--m", "1", "--seed", "1", "--trials", "2"],
    # bad arguments
    ["verify", "pure", "--catalog", "nope"],
    ["frame-test", "--catalog", "nope"],
    ["verify", "pure", "--catalog", "qk"],
    ["verify", "pure", "--catalog", "qk", "--m", "9"],
    ["catalog", "emit", "--name", "qk", "--m", "9"],
    ["catalog", "emit", "--name", "generic"],
    ["eta", "--catalog", "spin7_pure", "--pair", "xy"],
    ["verify", "pure"],
    ["eta"],
    ["verify", "spinc"],
    ["annihilator"],
    ["verify", "spinc", "--catalog", "spin7_pure"],
    ["catalog", "emit", "--name", "qk", "--m", "1", "-o", "<tmp>/missing/x.json"],
    # bad files
    ["verify", "pure", "--in", "<tmp>/missing.json"],
    ["annihilator", "--in", "<tmp>"],
    ["verify", "pure", "--in", "<tmp>/bad.json"],
    ["annihilator", "--in", "<tmp>/bad.json"],
    ["verify", "pure", "--in", "<tmp>/latin1.json"],
    ["verify", "spinc", "--in", "<tmp>/latin1.json"],
    ["annihilator", "--in", "<tmp>/latin1.json"],
    ["eta", "--in", "<tmp>/bigint.json"],
    ["commutant", "--in", "<tmp>/bigint.json"],
    # malformed or refused wire objects
    ["verify", "pure", "--in", "<tmp>/coeffs1.json"],
    ["annihilator", "--in", "<tmp>/qk1.json", "--in", "<tmp>/coeffs1.json"],
    ["verify", "spinc", "--in", "<tmp>/qk1.json"],
    ["eta", "--in", "<tmp>/negative.json"],
    ["verify", "pure", "--in", "<tmp>/exponent.json"],
    ["annihilator", "--in", "<tmp>/m9.json"],
    ["verify", "reducing", "--in", "<tmp>/m9.json"],
    # well-formed inputs a certificate refuses
    ["verify", "pure", "--in", "<tmp>/zero.json"],
    ["verify", "spinc", "--in", "<tmp>/zero_untwisted.json"],
    ["verify", "spinc", "--in", "<tmp>/odd_untwisted.json"],
    ["verify", "reducing", "--in", "<tmp>/r1.json"],
    ["eta", "--in", "<tmp>/r1.json", "--pair", "1,2"],
    ["commutant", "--in", "<tmp>/r1.json"],
]


def _normalise(text: str, tmp: Path) -> str:
    # CPython 3.10 words the integer-digit limit "(4300)"; later versions
    # say "(4300 digits)".
    return text.replace(str(tmp), "<tmp>").replace("(4300) ", "(4300 digits) ")


def replay(tmp: Path) -> list:
    """Write ``INPUTS`` into ``tmp``, run ``MATRIX`` in order and return one
    {argv, code, stdout, stderr} record per invocation."""
    for name, data in INPUTS.items():
        (tmp / name).write_bytes(data)
    records = []
    for argv in MATRIX:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([a.replace("<tmp>", str(tmp)) for a in argv])
        records.append({"argv": argv, "code": code,
                        "stdout": _normalise(out.getvalue(), tmp),
                        "stderr": _normalise(err.getvalue(), tmp)})
    return records


def test_cli_transcript_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = replay(tmp_path)
    assert [r["argv"] for r in records] == [g["argv"] for g in golden]
    for got, want in zip(records, golden):
        assert got == want, " ".join(want["argv"])

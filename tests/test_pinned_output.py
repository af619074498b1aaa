"""CLI output pinned byte for byte.

Each command's output file (or, for a search that finds no certificate,
its stderr line) is compared with bytes recorded from an earlier tree, so
a refactor of the symmetry code (refinement, map search, folds, orbits and
percolation) cannot move a certificate, a fold order or an orbit row
unnoticed. None of these outputs holds a float, so they do not depend on
the machine. To re-record after an intended change, run
`PYTHONPATH=src python tests/test_pinned_output.py` and paste its lines.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sidlab.cli import main

GRAPHS = {
    "star7": ["star", "--d", "7"],
    "cycle4": ["cycle4"],
    "book2": ["book", "--k", "2"],
    "i42": ["incidence", "--n", "4", "--uniformities", "2"],
    "i423": ["incidence", "--n", "4", "--uniformities", "2,3"],
    "i523": ["incidence", "--n", "5", "--uniformities", "2,3"],
}

# (graph, command after the graph file): sha256 of the output file
PINNED_FILES = {
    ("star7", "certify --mode edge"):
        "201bb0e101b294b8da0ecc37e0f7ba747739b64b0dd15d1d5030c91a30bc8a26",
    ("cycle4", "certify --mode left"):
        "bba623629c66db17c0ec349cbee3e633f0cc498a7a78f8b28b1b8000bc842888",
    ("cycle4", "certify --mode edge"):
        "011ede3e3f71a14679168439afd555c98a8b678651b312b20bbd88fbdc45dc0a",
    ("i42", "certify --mode left"):
        "8f7b08df0c21dd2dd9f4f02dc33d2754ffb789a948877b7e45c6d053339263fd",
    ("i42", "certify --mode edge"):
        "f2fc44ec606f7a45e56db70d705bf5b2f181a72fe280ca018345d76df05a17a9",
    ("i523", "certify --mode left --pool reflection"):
        "acbd8f467f9c6d3aeac0bd9d767e93838237dd417c73feda9d3030ab050d2cf4",
    ("i42", "certify --mode edge --pool reflection"):
        "5379f51f950934c5ea728f135b8755a56769b9224d1c914b66efd3bb4ea6a51b",
}

# searches that find no certificate: exit 2 and this stderr line
PINNED_NOT_FOUND = {
    ("i523", "certify --mode edge --pool reflection"):
        "no certificate: exhausted (6712 states explored)\n",
    ("book2", "certify --mode left"):
        "no certificate: exhausted (4 states explored)\n",
}

# the sha256 of the `orbits` rows of `check orbits` with the graph as its
# own template; the rest of the report holds a float
PINNED_ORBITS = {
    "i423": "b6badd5ba4dd7b2b167aae8a5d7d7dca39a6a3c00092355c4404907f508ed06e",
}


def _construct(tmp: Path, name: str) -> Path:
    path = tmp / f"{name}.json"
    assert main(["construct", *GRAPHS[name], "-o", str(path)]) == 0
    return path


def _run(tmp: Path, graph: str, command: str) -> tuple[int, Path]:
    out = tmp / "out.json"
    out.unlink(missing_ok=True)
    verb, *options = command.split()
    code = main([verb, str(_construct(tmp, graph)), *options, "-o", str(out)])
    return code, out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _orbit_rows(tmp: Path, graph: str) -> str:
    g = _construct(tmp, graph)
    out = tmp / "orbits.json"
    assert main(["check", "orbits", str(g), "--template", str(g), "--trials", "2",
                 "-o", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["orbits"]
    return _digest(json.dumps(rows, sort_keys=True).encode())


@pytest.mark.parametrize("key", list(PINNED_FILES), ids=" ".join)
def test_certificate_bytes_are_pinned(tmp_path, key):
    code, out = _run(tmp_path, *key)
    assert code == 0
    assert _digest(out.read_bytes()) == PINNED_FILES[key]


@pytest.mark.parametrize("key", list(PINNED_NOT_FOUND), ids=" ".join)
def test_not_found_line_is_pinned(tmp_path, key, capsys):
    capsys.readouterr()
    code, out = _run(tmp_path, *key)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == PINNED_NOT_FOUND[key]


@pytest.mark.parametrize("graph", list(PINNED_ORBITS))
def test_orbit_rows_are_pinned(tmp_path, graph):
    assert _orbit_rows(tmp_path, graph) == PINNED_ORBITS[graph]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for key in PINNED_FILES:
            code, out = _run(tmp, *key)
            print(key, code, _digest(out.read_bytes()))
        for key in PINNED_NOT_FOUND:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, _ = _run(tmp, *key)
            print(key, code, repr(err.getvalue()))
        for graph in PINNED_ORBITS:
            print(graph, _orbit_rows(tmp, graph))

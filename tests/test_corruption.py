"""Seeded corruption sweep over one small two-captioner pool.

Each file a command reads is bit-flipped at a few seeded places, cut short
at a seeded length, or grown by one byte.  Every command that reads the
file then either succeeds with the clean run's output bytes, or refuses
with exit 1 or 2 and one stderr line (``validate``: its findings, one line
each, and their count), never a traceback.  ``materialize`` runs through
the API and may raise only a ``CapforgeError`` or an ``OSError``.

A user-written JSON input (a generator config, a strategy list) takes the
same mutations, and also has each of its digits turned into another, so
most of its variants still parse.  A file that parses asks for something
else, so a command reading it either succeeds or refuses in one line, never
with a traceback.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from capforge import fileio
from capforge.cli import cli_main
from capforge.curation import read_curated
from capforge.errors import CapforgeError
from capforge.pool import materialize, open_pool
from capforge.poolgen import GenConfig, SynSource, generate_pool

SEED = 7
CURATED = "curated.jsonl"
# file: the commands that read it
FILES = {
    "manifest.json": ("validate", "mix", "filter", "metrics", "report", "materialize"),
    "shard-00001.cap": ("validate", "mix", "filter", "metrics", "report", "materialize"),
    "shard-00001.image.f32": ("validate", "materialize"),
    "raw.scores.f32": ("mix", "filter", "metrics", "report"),
    "syn.blip2.0.75.scores.f32": ("mix", "metrics", "report"),
    CURATED: ("metrics", "materialize"),
}
# user-written JSON in the work directory: (its text, the commands that read it)
JSON_FILES = {
    "gen.json": (json.dumps({"num_records": 300, "seed": SEED, "records_per_shard": 100}),
                 ("gen", "sweep")),
    "in1k.json": (json.dumps([{"name": "raw_top", "p": 30, "in1k_intersect": True,
                               "cluster_params": {"k": 8, "max_iters": 10, "tol": 1e-4,
                                                  "seed": 3}}]),
                  ("in1k-report",)),
}
MUTATIONS = ("flip0", "flip1", "flip2", "truncate", "append")
STRATEGIES = [
    {"name": "raw_top", "p": 30},
    {"name": "raw_top_plus_syn_rest_filtered", "p": 30, "syn_source": "blip2"},
    {"name": "syn_top_plus_raw_rest_filtered", "p": 30, "syn_source": "blip2"},
]
FINDING_KINDS = ("shard_error", "sidecar_error", "duplicate_id")

# The cases known to fail: a score sidecar carries no checksum, so a flipped
# score that is still a cosine changes what selects on it or is averaged.
# A curated file's header holds a crc32 of its fields and entries, so no
# flip of it reads; see ``test_a_curated_id_flipped_to_another_pool_id_is_refused``.
KNOWN = {
    ("raw.scores.f32", "flip0", "mix"), ("raw.scores.f32", "flip0", "filter"),
    ("raw.scores.f32", "flip0", "report"), ("raw.scores.f32", "flip1", "metrics"),
    ("raw.scores.f32", "flip1", "report"),
    ("syn.blip2.0.75.scores.f32", "flip0", "metrics"),
    ("syn.blip2.0.75.scores.f32", "flip0", "report"),
}


def _cases():
    for name, commands in FILES.items():
        for mutation in MUTATIONS:
            for command in commands:
                marks = [pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="a flipped score that is still a cosine changes the output",
                )] if (name, mutation, command) in KNOWN else []
                yield pytest.param(name, mutation, command, marks=marks,
                                   id=f"{name}-{mutation}-{command}")


def _corrupt(blob: bytes, name: str, mutation: str) -> bytes:
    """``blob`` under one seeded mutation, drawn from (SEED, file, mutation);
    ``digitN`` turns the N-th ASCII digit of ``blob`` into another digit."""
    file_index = [*FILES, *JSON_FILES].index(name)
    if mutation.startswith("digit"):
        n = int(mutation.removeprefix("digit"))
        rng = np.random.default_rng([SEED, file_index, len(MUTATIONS) + n])
        at = [m.start() for m in re.finditer(rb"[0-9]", blob)][n]
        digit = (blob[at] - ord("0") + int(rng.integers(1, 10))) % 10
        return blob[:at] + str(digit).encode() + blob[at + 1 :]
    rng = np.random.default_rng([SEED, file_index, MUTATIONS.index(mutation)])
    if mutation == "truncate":
        return blob[: rng.integers(len(blob))]
    if mutation == "append":
        return blob + bytes([rng.integers(256)])
    at = int(rng.integers(len(blob)))
    return blob[:at] + bytes([blob[at] ^ (1 << int(rng.integers(8)))]) + blob[at + 1 :]


def _run(command: str, work: Path, out: Path, capsys) -> tuple[int, dict[str, bytes], str]:
    """(exit status, output files by name, stderr) of one command; the
    output of ``validate`` is its stdout."""
    pool, curated = str(work / "pool"), str(work / CURATED)
    out.mkdir()
    capsys.readouterr()
    if command == "materialize":
        try:
            materialize(open_pool(pool), read_curated(curated), out / "pool")
        except (CapforgeError, OSError) as exc:
            return 2, {}, f"error: {exc}\n"
        return 0, _files(out), ""
    args = {
        "validate": ["validate", pool],
        "mix": ["mix", "--pool", pool, "--strategy", "raw_top_plus_syn_rest_filtered",
                "--p", "30", "--syn-source", "blip2", "--out", str(out / "c.jsonl")],
        "filter": ["filter", "--pool", pool, "--p", "40", "--out", str(out / "ids.jsonl")],
        "metrics": ["metrics", "--pool", pool, "--curated", curated, "--out",
                    str(out / "m.json")],
        "report": ["report", "--pool", pool, "--strategies", str(work / "strategies.json"),
                   "--out-dir", str(out / "rep")],
        "gen": ["gen", "--config", str(work / "gen.json"), "--out", str(out / "pool")],
        "sweep": ["sweep", "--config", str(work / "gen.json"), "--scales", "100,200",
                  "--strategies", str(work / "strategies.json"), "--out-dir", str(out / "sweep")],
        "in1k-report": ["report", "--pool", pool, "--strategies", str(work / "in1k.json"),
                        "--in1k-refs", str(work / "refs.f32"), "--out-dir", str(out / "rep")],
    }[command]
    code = cli_main(args)
    captured = capsys.readouterr()
    files = _files(out)
    if command == "validate":
        files["stdout"] = captured.out.encode()
    return code, files, captured.err


def _files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(work directory, clean output of each command).  The work directory
    holds the pool, its raw and blip2 score sidecars, a curated file from
    ``mix``, the report's strategies, and the JSON inputs of ``JSON_FILES``
    beside the reference embeddings their in1k report reads."""
    work = tmp_path_factory.mktemp("corruption")
    syn = [SynSource("blip2", 0.75, 0.7), SynSource("coca", 1.0, 0.5)]
    generate_pool(GenConfig(num_records=300, seed=SEED, records_per_shard=100,
                            syn_sources=syn), work / "pool")
    for source in ("raw", "blip2"):
        assert cli_main(["score", "--pool", str(work / "pool"), "--source", source]) == 0
    assert cli_main(["mix", "--pool", str(work / "pool"), "--strategy",
                     "raw_top_plus_syn_rest_filtered", "--p", "30", "--syn-source", "blip2",
                     "--out", str(work / CURATED)]) == 0
    (work / "strategies.json").write_text(json.dumps(STRATEGIES))
    for name, (text, _) in JSON_FILES.items():
        (work / name).write_text(text)
    fileio.write_embeddings(work / "refs.f32", open_pool(work / "pool").embeddings("image")[:10])
    return work, {}


def _clean(sweep, command: str, tmp_path: Path, capsys) -> dict[str, bytes]:
    work, clean = sweep
    if command not in clean:
        code, files, err = _run(command, work, tmp_path / f"clean-{command}", capsys)
        assert (code, err) == (0, ""), err
        clean[command] = files
    return clean[command]


@pytest.mark.parametrize("name, mutation, command", list(_cases()))
def test_a_corrupt_file_gives_the_clean_output_or_one_line(sweep, tmp_path, capsys, name,
                                                            mutation, command):
    work, _ = sweep
    want = _clean(sweep, command, tmp_path, capsys)
    path = work / name if name == CURATED else work / "pool" / name
    blob = path.read_bytes()
    path.write_bytes(_corrupt(blob, name, mutation))
    try:
        _check(command, want, *_run(command, work, tmp_path / "out", capsys))
    finally:
        path.write_bytes(blob)


def _json_cases():
    for name, (text, commands) in JSON_FILES.items():
        digits = len(re.findall(r"[0-9]", text))
        for mutation in [*MUTATIONS, *(f"digit{n}" for n in range(digits))]:
            for command in commands:
                yield pytest.param(name, mutation, command, id=f"{name}-{mutation}-{command}")


@pytest.mark.parametrize("name, mutation, command", list(_json_cases()))
def test_a_corrupt_json_input_runs_or_is_refused_in_one_line(sweep, tmp_path, capsys, name,
                                                              mutation, command):
    work, _ = sweep
    _clean(sweep, command, tmp_path, capsys)
    path = work / name
    blob = path.read_bytes()
    path.write_bytes(_corrupt(blob, name, mutation))
    try:
        code, _, err = _run(command, work, tmp_path / "out", capsys)
    finally:
        path.write_bytes(blob)
    assert "Traceback" not in err
    if code != 0:
        assert code in (1, 2) and err.endswith("\n") and len(err.splitlines()) == 1, err


def _check(command: str, want: dict[str, bytes], code: int, files: dict[str, bytes], err: str):
    """The clean run's output, or a refusal in one line and no traceback."""
    assert "Traceback" not in err
    if code == 0:
        assert files == want, f"{command} exits 0 with other output"
        return
    assert code in (1, 2), err
    lines = err.splitlines()
    if command == "validate" and len(lines) > 1:  # one line per finding, then their count
        assert err.endswith("\n") and lines[-1] == f"{len(lines) - 1} finding(s)", err
        assert all(line.split(": ", 1)[0] in FINDING_KINDS for line in lines[:-1]), err
    else:
        assert err.endswith("\n") and len(lines) == 1, err


@pytest.mark.parametrize("command", FILES[CURATED])
def test_a_curated_id_flipped_to_another_pool_id_is_refused(sweep, tmp_path, capsys, command):
    """The first entry whose id, with the low bit of its last digit flipped,
    names a record the pool holds under a (id, caption choice) pair the file
    lacks: the file still parses, and selects another record."""
    work, _ = sweep
    want = _clean(sweep, command, tmp_path, capsys)
    path = work / CURATED
    blob = path.read_bytes()
    held = {tuple(entry) for entry in read_curated(path).entries.tolist()}
    ids = set(open_pool(work / "pool").ids().tolist())
    for match in re.finditer(rb'\{"id":([0-9]+),"cap":("raw"|[0-9]+)\}', blob):
        at = match.end(1) - 1
        flipped = blob[:at] + bytes([blob[at] ^ 1]) + blob[at + 1 :]
        rec_id = int(flipped[match.start(1) : match.end(1)])
        cap = -1 if match[2] == b'"raw"' else int(match[2])
        if rec_id in ids and (rec_id, cap) not in held:
            break
    else:
        pytest.fail("no entry id flips to another id of the pool")
    path.write_bytes(flipped)
    try:
        _check(command, want, *_run(command, work, tmp_path / "out", capsys))
    finally:
        path.write_bytes(blob)


def test_a_curated_tau_used_digit_turned_into_another_is_refused(sweep, tmp_path, capsys):
    """The header's ``tau_used`` with its first decimal digit one higher
    (0.2347... -> 0.3347...) is still a finite number, which ``metrics``
    would copy into its output."""
    work, _ = sweep
    want = _clean(sweep, "metrics", tmp_path, capsys)
    path = work / CURATED
    blob = path.read_bytes()
    match = re.search(rb'"tau_used":0\.([0-9])', blob)
    digit = str((int(match[1]) + 1) % 10).encode()
    path.write_bytes(blob[: match.start(1)] + digit + blob[match.end(1) :])
    try:
        _check("metrics", want, *_run("metrics", work, tmp_path / "out", capsys))
    finally:
        path.write_bytes(blob)

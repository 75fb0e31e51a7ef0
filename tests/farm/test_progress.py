"""The live progress line of ``repro farm run``.

Each status update rewrites one stderr line with ``\\r``, padded to a
fixed width. With one worker the dispatch order is deterministic, so
the whole sequence of lines a sweep draws is pinned here: a cold run,
a warm run, and a build that crashes on every attempt.
"""

import re

import pytest

from repro.__main__ import main

WIDTH = 119

ARGS = ["farm", "run", "--jobs", "1", "--no-render", "--suite", "eqntott",
        "--figures", "table1"]


def progress_lines(stderr: str) -> list[str]:
    """The ``\\r`` lines of one run, right padding checked and removed."""
    lines = re.findall(r"\r([^\r\n]*)", stderr)
    assert lines, stderr
    for line in lines:
        assert len(line) == WIDTH, repr(line)
    return [line.rstrip() for line in lines]


def run(store_dir, capsys, *extra) -> tuple[int, list[str]]:
    capsys.readouterr()
    code = main(ARGS + ["--store", store_dir, *extra])
    return code, progress_lines(capsys.readouterr().err)


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


SCHEDULED = [
    "[farm] 0/1 done | 0 hits 0 computed 0 failed |",
    "[farm] 0/2 done | 0 hits 0 computed 0 failed |",
    "[farm] 0/3 done | 0 hits 0 computed 0 failed |",
]


def test_cold_run(store_dir, capsys):
    code, lines = run(store_dir, capsys)
    assert code == 0
    assert lines == SCHEDULED + [
        "[farm] 0/3 done | 0 hits 0 computed 0 failed | build:eqntott",
        "[farm] 1/3 done | 0 hits 1 computed 0 failed | build:eqntott",
        "[farm] 1/3 done | 0 hits 1 computed 0 failed | trace:eqntott",
        "[farm] 2/3 done | 0 hits 2 computed 0 failed | trace:eqntott",
        "[farm] 2/3 done | 0 hits 2 computed 0 failed | analysis:eqntott",
        "[farm] 3/3 done | 0 hits 3 computed 0 failed | analysis:eqntott",
    ]


def test_warm_run(store_dir, capsys):
    assert run(store_dir, capsys)[0] == 0
    code, lines = run(store_dir, capsys)
    assert code == 0
    assert lines == SCHEDULED + [
        "[farm] 1/3 done | 1 hits 0 computed 0 failed | build:eqntott",
        "[farm] 2/3 done | 2 hits 0 computed 0 failed | trace:eqntott",
        "[farm] 3/3 done | 3 hits 0 computed 0 failed | analysis:eqntott",
    ]


def test_crash_retry_give_up(store_dir, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FARM_TEST_CRASH", "build:eqntott")
    code, lines = run(store_dir, capsys, "--retries", "1")
    assert code == 1
    assert lines == SCHEDULED + [
        "[farm] 0/3 done | 0 hits 0 computed 0 failed | build:eqntott",
        "[farm] 0/3 done | 0 hits 0 computed 0 failed | "
        "build:eqntott crashed",
        "[farm] 0/3 done | 0 hits 0 computed 0 failed 1 retries | "
        "build:eqntott retry #2",
        "[farm] 0/3 done | 0 hits 0 computed 0 failed 1 retries | "
        "build:eqntott",
        "[farm] 0/3 done | 0 hits 0 computed 0 failed 1 retries | "
        "build:eqntott crashed",
        "[farm] 1/3 done | 0 hits 0 computed 1 failed 1 retries | "
        "build:eqntott FAILED",
        "[farm] 2/3 done | 0 hits 0 computed 2 failed 1 retries | "
        "trace:eqntott FAILED",
        "[farm] 3/3 done | 0 hits 0 computed 3 failed 1 retries | "
        "analysis:eqntott FAILED",
    ]

"""Unit tests for the command-line interface."""

import os
import queue
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_suites_lists_all(capsys):
    assert main(["suites"]) == 0
    out = capsys.readouterr().out
    for name in ("deep", "glove", "hepmass", "mnist", "pamap2", "sift", "words"):
        assert name in out


def test_detect_on_suite(capsys):
    code = main(
        ["detect", "--suite", "glove", "--n", "220", "--K", "8", "--k", "6"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "outliers" in out
    assert "mrpg" in out


def test_detect_on_npy_input(tmp_path, capsys, rng):
    pts = np.concatenate(
        [rng.normal(size=(150, 4)), rng.normal(size=(4, 4)) + 50.0]
    )
    path = tmp_path / "pts.npy"
    np.save(path, pts)
    out_path = tmp_path / "outliers.txt"
    code = main(
        ["detect", "--input", str(path), "--r", "2.0", "--k", "5",
         "--K", "8", "--output", str(out_path)]
    )
    assert code == 0
    ids = np.loadtxt(out_path, dtype=np.int64, ndmin=1)
    assert ids.size >= 4  # at least the planted far points


def test_detect_text_input_edit_metric(tmp_path, capsys):
    from repro.datasets import words_with_outliers

    words = words_with_outliers(160, n_stems=10, planted_frac=0.02, rng=0)
    path = tmp_path / "words.txt"
    path.write_text("\n".join(words), encoding="utf-8")
    code = main(
        ["detect", "--input", str(path), "--metric", "edit",
         "--r", "4", "--k", "4", "--K", "6"]
    )
    assert code == 0
    assert "edit" not in capsys.readouterr().err


def test_detect_input_requires_r_and_k(tmp_path, capsys, rng):
    path = tmp_path / "pts.npy"
    np.save(path, rng.normal(size=(50, 3)))
    assert main(["detect", "--input", str(path)]) == 2
    assert "--r and --k" in capsys.readouterr().err


def test_sweep_on_suite_with_check(capsys):
    code = main(
        ["sweep", "--suite", "glove", "--n", "300", "--K", "8",
         "--k-grid", "5,8", "--check"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "check passed" in out
    assert "cache_decided" in out
    assert "speedup from reuse" in out


@pytest.mark.parametrize("name", ["engine.npz", "engine"])
def test_sweep_snapshot_restart_serves_warm(tmp_path, capsys, name):
    # The snapshot is written at exactly the given path, with or
    # without a suffix.
    snap = tmp_path / name
    args = ["sweep", "--suite", "glove", "--n", "250", "--K", "8",
            "--k", "6", "--snapshot", str(snap)]
    assert main(args) == 0
    assert snap.exists()
    first = capsys.readouterr().out
    assert "snapshot written" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "loaded warm engine snapshot" in second
    # The ", 0" anchor matters: "10 distance computations" would still
    # contain the bare substring "0 distance computations".
    assert ", 0 distance computations" in second


def test_sweep_rejects_bad_grids_cleanly(capsys):
    # Library ParameterErrors must surface as CLI errors, not tracebacks.
    code = main(["sweep", "--suite", "glove", "--n", "150", "--K", "6",
                 "--k-grid", "0"])
    assert code == 2
    assert "k must be >= 1" in capsys.readouterr().err
    code = main(["sweep", "--suite", "glove", "--n", "150", "--K", "6",
                 "--r-grid", ""])
    assert code == 2
    assert "at least one value" in capsys.readouterr().err
    # Malformed tokens are a clean CLI error too, not a ValueError traceback.
    code = main(["sweep", "--suite", "glove", "--n", "150", "--K", "6",
                 "--k-grid", "5a"])
    assert code == 2
    assert "invalid grid value '5a'" in capsys.readouterr().err


def test_sweep_input_requires_parameters(tmp_path, capsys, rng):
    path = tmp_path / "pts.npy"
    np.save(path, rng.normal(size=(60, 3)))
    assert main(["sweep", "--input", str(path)]) == 2
    assert "--r/--r-grid" in capsys.readouterr().err


def test_sweep_on_npy_input(tmp_path, capsys, rng):
    pts = np.concatenate(
        [rng.normal(size=(120, 4)), rng.normal(size=(4, 4)) + 40.0]
    )
    path = tmp_path / "pts.npy"
    np.save(path, pts)
    code = main(
        ["sweep", "--input", str(path), "--r-grid", "1.5,2.0,2.5",
         "--k-grid", "4", "--K", "8", "--check"]
    )
    assert code == 0
    assert "check passed" in capsys.readouterr().out


def test_experiment_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SUITES", "words")
    from repro.harness import clear_caches

    clear_caches()
    code = main(
        ["experiment", "table1", "--save-dir", str(tmp_path), "--scale", "0.1"]
    )
    clear_caches()
    assert code == 0
    assert (tmp_path / "table1.txt").exists()
    assert "table1" in capsys.readouterr().out


def test_topn_command(capsys):
    code = main(
        ["topn", "--suite", "words", "--n-top", "5", "--n", "200",
         "--K", "6", "--k", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "kNN distance" in out
    assert "seeding=mrpg" in out


def test_topn_command_no_graph(capsys):
    code = main(
        ["topn", "--suite", "words", "--n-top", "3", "--n", "150",
         "--no-graph", "--k", "3"]
    )
    assert code == 0
    assert "seeding=none" in capsys.readouterr().out


def test_stream_command(capsys):
    code = main(
        ["stream", "--suite", "words", "--n", "160", "--window", "40", "--k", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "window outliers" in out
    assert "reports" in out


def test_stream_command_with_check(capsys):
    code = main(
        ["stream", "--suite", "glove", "--n", "120", "--window", "30",
         "--k", "4", "--check"]
    )
    assert code == 0
    assert "check passed" in capsys.readouterr().out


def test_update_command_with_check_and_snapshot(tmp_path, capsys):
    snap = str(tmp_path / "mutable.npz")
    args = ["update", "--suite", "glove", "--n", "200", "--batches", "3",
            "--churn", "0.1", "--K", "8", "--check", "--snapshot", snap]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "check passed" in out
    assert "snapshot written" in out
    # Second run restores the snapshot and serves warm.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "loaded warm mutable snapshot" in out
    assert "check passed" in out


def test_update_command_rejects_bad_parameters(capsys):
    code = main(
        ["update", "--suite", "glove", "--n", "120", "--batches", "0"]
    )
    assert code == 2
    assert "batches" in capsys.readouterr().err
    code = main(
        ["update", "--suite", "glove", "--n", "120", "--rebalance"]
    )
    assert code == 2
    assert "--shards" in capsys.readouterr().err


def test_update_command_sharded_with_snapshot(tmp_path, capsys):
    snap = str(tmp_path / "mutable_sharded")
    args = ["update", "--suite", "glove", "--n", "180", "--batches", "3",
            "--churn", "0.1", "--K", "8", "--shards", "2", "--check",
            "--snapshot", snap]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "check passed" in out
    assert "snapshot written" in out
    # Second run restores the directory snapshot and serves warm.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "loaded warm mutable snapshot" in out
    assert "pairs=        0" in out
    assert "check passed" in out


def test_update_command_shm_store_with_snapshot(tmp_path, capsys):
    # glove is angular: the shared store holds normalised rows, and the
    # second run hands the raw suite objects back to the loader.
    snap = str(tmp_path / "shm_snap")
    args = ["update", "--suite", "glove", "--n", "300", "--batches", "3",
            "--churn", "0.1", "--K", "8", "--store", "shm", "--check",
            "--snapshot", snap]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "check passed" in out
    assert "snapshot written" in out
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "loaded warm mutable snapshot" in out
    assert "check passed" in out


def test_stream_command_sharded_with_check(capsys):
    code = main(
        ["stream", "--suite", "glove", "--n", "120", "--window", "30",
         "--k", "4", "--shards", "2", "--check"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "shards=2" in out
    assert "check passed" in out


def test_calibrate_command(capsys):
    code = main(
        ["calibrate", "--suite", "words", "--k", "4", "--target", "0.05",
         "--n", "150"]
    )
    assert code == 0
    assert "calibrated r=" in capsys.readouterr().out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _shm_entries():
    return {
        name for name in os.listdir("/dev/shm") if name.startswith("repro_")
    }


def _pump(stream, lines):
    for line in stream:
        lines.put(line)
    lines.put(None)


# Starts ``repro-dod serve`` the way a shell started with ``&`` would:
# SIGINT ignored (when asked) before the interpreter starts, so the
# server inherits SIG_IGN.
_SERVE_CHILD = (
    "import os, signal, sys\n"
    "if sys.argv[1] == 'ignore':\n"
    "    signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
    "os.execv(sys.executable, [sys.executable, '-m', 'repro.cli', "
    "*sys.argv[2:]])\n"
)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.parametrize(
    "signum, sigint", [(signal.SIGTERM, "default"), (signal.SIGINT, "ignore")],
    ids=["sigterm", "sigint-inherited-ignored"],
)
def test_serve_stops_cleanly_on_signal(signum, sigint):
    """The server stops through its normal exit: status 0, and the
    shared object store is gone from /dev/shm."""
    before = _shm_entries()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)  # the listening line flushes itself
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVE_CHILD, sigint, "serve", "--suite",
         "glove", "--n", "250", "--K", "8", "--mutable", "--shards", "2",
         "--workers", "1", "--store", "shm", "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True,
    )
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(
        target=_pump, args=(proc.stdout, lines), daemon=True
    )
    reader.start()
    try:
        while True:
            line = lines.get(timeout=120)
            assert line is not None, "server exited before listening"
            if line.startswith("listening on"):
                break
        proc.send_signal(signum)
        code = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        reader.join(timeout=5)
        proc.stdout.close()
    assert code == 0
    assert not _shm_entries() - before

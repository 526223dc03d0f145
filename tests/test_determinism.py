"""The determinism contract across processes, BLAS thread counts and hash
seeds: two ``cocor pretrain`` processes that differ in all three write the
same bytes."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# TREND_CONFIG at two epochs; at criterion 8's size OpenBLAS never starts a
# second thread, so a thread-dependent reduction would not show
TREND_TEXT = ("classes = 8\nper_class = 96\nheight = 32\nwidth = 32\nchannels = 1\n"
              "noise = 0.2\nqueue_capacity = 256\nbatch_size = 64\nepochs = 2\nlengths = 1\n")
OUTPUTS = ("metrics.jsonl", "checkpoint.ccor")


def test_blas_threads_do_not_change_outputs(tmp_path):
    cfg = tmp_path / "trend.cfg"
    cfg.write_text(TREND_TEXT)
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    procs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": threads,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        procs[threads] = subprocess.Popen(
            [sys.executable, "-m", "cocor.cli", "pretrain", "--config", str(cfg),
             "--seed", "0", "--out", str(tmp_path / threads)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    for proc in procs.values():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    for name in OUTPUTS:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

"""Helpers shared by ``run.py``, ``worker.py`` and ``regenerate.py``."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE_DIR = BENCH_DIR / "references"

WORKLOADS = ("rechisel-sweep", "deep-verify", "serve-open-loop")

#: A latency percentile is reported only with at least this many samples
#: beyond it.
MIN_TAIL_SAMPLES = 10


class BenchmarkError(Exception):
    """A run that cannot produce trustworthy numbers."""


#: Hex digits per reference digest; references store digests concatenated.
DIGEST_CHARS = 8


def payload_digest(payload: object) -> str:
    """Short content digest of a JSON-serializable result."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:DIGEST_CHARS]


def digest_at(blob: str, index: int) -> str:
    """The ``index``-th digest of a concatenated reference string."""
    return blob[index * DIGEST_CHARS : (index + 1) * DIGEST_CHARS]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def check_tail(count: int, q: float = 0.9) -> None:
    """Refuse a percentile that too few samples lie beyond."""
    beyond = samples_beyond(count, q)
    if beyond < MIN_TAIL_SAMPLES:
        raise BenchmarkError(
            f"only {beyond} of {count} samples lie beyond p{round(q * 100)}; "
            f"at least {MIN_TAIL_SAMPLES} are needed (measure more work per run)"
        )


#: Seconds :func:`reference_job` takes at the reference speed: the slower of
#: the two speeds the 2-core Xeon virtual host of the first measurements
#: switches between, the one it spends most of its time in.
REFERENCE_JOB_S = 0.005


def reference_job() -> float:
    """Run a fixed pure-Python job; return its CPU seconds, the host's speed now.

    It calls none of the program's code, so no change to the program moves
    it.  Its dict, string and sort work resembles the interpreter work of the
    workloads, and followed their speed more closely than a bare arithmetic
    loop did.  It builds almost no objects the garbage collector tracks, so
    neither does it set off a collection of the program's heap, nor does its
    time depend on how large that heap is.  It is timed in CPU time of the
    calling thread, so time another thread of the process holds the
    interpreter lock is not counted.
    """
    start = time.thread_time()
    table: dict[str, str] = {}
    for i in range(6000):
        key = "n%d" % (i * 7919 % 1500)
        table[key] = table.get(key, "") + key[-1]
    words = sorted(table, key=table.__getitem__)
    " ".join(words).split()
    return time.thread_time() - start


class HostSpeed:
    """Samples of :func:`reference_job` taken while a round runs.

    The host's speed changes by half or more, in phases of seconds to
    minutes, because of load outside this machine; process CPU time slows
    with it.  A round samples the job between its units, outside
    every timing, and reports each timing scaled to the reference speed:
    ``seconds * REFERENCE_JOB_S / median(samples)``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall seconds the sampling took, to subtract from a timed region.
        self.spent_s = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_job())
        self.spent_s += time.perf_counter() - start

    def factor(self) -> float:
        """Host speed over the reference speed; multiply a time by it to scale it."""
        return REFERENCE_JOB_S / statistics.median(self.samples)


def repro_variables(environ: dict[str, str]) -> list[str]:
    return sorted(name for name in environ if name.startswith("REPRO_"))


def worker_environment(extra: dict[str, str] | None = None) -> dict[str, str]:
    """The environment of a workload process: no ``REPRO_*`` knobs, fixed hashing."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), str(BENCH_DIR)])
    # Fixed string hashing, so set iteration order and therefore every count
    # repeats exactly between runs of one seed.
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


def host_fingerprint(seed: int) -> dict[str, object]:
    """What a result was measured on."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy missing or unreadable metadata
        numpy_version = "unavailable"
    commit = "unknown"  # an exported checkout has no history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "seed": seed,
    }


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / name
    if not path.is_file():
        raise BenchmarkError(f"missing reference file {path}; run perfbench/regenerate.py")
    with open(path) as handle:
        return json.load(handle)

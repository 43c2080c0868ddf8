"""One benchmark child: a fresh interpreter that sets up indsub and then
drives a workload's ops in order through ``indsub.cli.main``.

Usage: python3 bench/child.py SPEC.json

SPEC holds the source directory, the catalogs to preload, whether to
trace, the ops' argv lists and where to write the result.  The result
records the moment set-up finished (``time.monotonic``, which the parent
shares), each op's exit status, output digest, size and duration, the
wall time of the timed phase, ``ru_maxrss`` and the machine's speed while
the child ran.  The process exits 0 even when ops fail: the parent counts
failures.

Machine speed.  The cores are shared with other tenants, and a fixed
piece of Python runs up to 1.5x slower for stretches of several seconds.
To take that out of the timings, the child times a fixed calibration
loop five times before set-up, five times after it, and -- through a
SIGALRM timer -- every 0.2 s of the timed phase and three times after it.
The time those loops take is subtracted (``wall_raw_s``), and ``speed``
(the mean of REFERENCE_S / loop time) converts the measured seconds into
seconds at the reference speed (``wall_s``).  That conversion assumes the
loop's cost does not depend on the program's state; the loop shares the
program's heap and caches, so the uncorrected times are kept as well.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback

# One calibration loop on the reference machine: its time in the quiet
# stretches of a shared 2-vCPU Intel Xeon running CPython 3.11.7, where the
# loop's times cluster around 0.7 ms (and around 1.2 ms in the slow ones).
REFERENCE_S = 0.0007
SAMPLE_PERIOD_S = 0.2
_TABLE = {(i, i % 13): i for i in range(1024)}


def calibrate() -> float:
    """Seconds a fixed piece of Python takes right now.  Like indsub, it
    builds small tuples, looks them up in a small dict and appends to a
    list; it tracked the workloads' slowdowns better than pure integer
    arithmetic or lookups in a table too large for the caches."""
    # The loop's allocations must not trigger collections of the program's
    # garbage: with the collector running, they made count's peak RSS
    # drop from about 73 to 48 MB.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, out = 0, []
        for i in range(4000):
            key = (i & 1023, (i & 1023) % 13)
            acc += _TABLE[key]
            out.append((acc, key))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Calibrates every SAMPLE_PERIOD_S seconds while active."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibrate())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def speed(samples: list[float]) -> float:
    return sum(REFERENCE_S / s for s in samples) / len(samples)


def run_op(main, argv, keep_stdout: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except BaseException:  # noqa: BLE001 - a raising op is a counted failure
        rc = None
        err.write(traceback.format_exc())
    seconds = time.monotonic() - start
    text = out.getvalue()
    data = text.encode()
    return {"rc": rc, "digest": hashlib.sha256(data).hexdigest(),
            "bytes": len(data), "seconds": seconds,
            "stdout": text if keep_stdout or len(data) <= 4096 else None,
            "stderr": err.getvalue()[-2000:]}


def main() -> int:
    before_setup = [calibrate() for _ in range(5)]
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import indsub  # noqa: F401 - part of set-up
    from indsub import canon, cli
    from indsub.catalog import build_catalog

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    canon_before = len(canon._cache)
    for k in spec["preload"]:
        build_catalog(k)
    ready = time.monotonic()
    after_setup = [calibrate() for _ in range(5)]

    ops = []
    with SpeedSampler() as sampler:
        first = time.monotonic()
        for argv in spec["ops"]:
            ops.append(run_op(cli.main, argv, spec["keep_stdout"]))
        wall = time.monotonic() - first
    timed = sampler.samples + [calibrate() for _ in range(3)]
    in_phase = sum(sampler.samples)

    result = {"ready": ready, "calibration_before_setup": sum(before_setup),
              "setup_speed": speed(before_setup + after_setup),
              "wall_raw_s": wall - in_phase,
              "wall_s": (wall - in_phase) * speed(timed),
              "calibration_samples": len(sampler.samples), "ops": ops,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        from tracer import layer_metrics
        layers = layer_metrics(
            tracer, canon_entries_before=canon_before,
            canon_entries_after=len(canon._cache),
            output_bytes=sum(op["bytes"] for op in ops))
        factor = speed(before_setup + after_setup + timed)
        result["layers"] = {
            key: (value * factor if unit == "s" else value, unit)
            for key, (value, unit) in layers.items()}
        result["functions"] = tracer.table()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One round of a workload in a fresh interpreter.

usage: python3 bench/child.py WORKLOAD SEED ROUND {setup,plain,traced}

Imports loopschur from the checkout's ``src``, builds the round's operations
and, unless the mode is ``setup``, runs them back to back through
``loopschur.cli.main`` in this one process.  Each operation's exit status,
stdout and stderr are captured.  The last line of stdout is one JSON object
for the parent: ``ready`` (the monotonic clock when the first operation could
start), the operations and, in traced mode, the layer aggregates and spans.

The speed of a core on a shared machine can swing by half within seconds, so
a ``Speedometer`` times a fixed probe before and after every operation and,
from a timer signal, every ``PROBE_INTERVAL_S`` during it.  Each stretch of
an operation between two probes is scaled by their mean time to the speed at
which the probe takes ``REFERENCE_PROBE_S``.  Probe time is left out of every
operation's time; in traced rounds it still falls inside whichever span is
open (about 3 % of each).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_ITEMS = 3_000
PROBE_INTERVAL_S = 0.1
# The probe's time on a quiet core of the machine the reference figures come
# from (2.1 GHz x86-64, Python 3.11): scaled times are seconds at that speed.
REFERENCE_PROBE_S = 0.0015


class Speedometer:
    """Samples the core's speed as the time of a fixed sort and count of tuples
    (the faster of two passes, so one preemption does not count).

    Of the probes tried, this one tracked loopschur's own slowdowns best: on
    mn-verify, exhaustive and sampled involution checks, log operation time
    against log probe time had slope 0.96 to 1.07 and correlation 0.86 to 0.89.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, end, probe time)
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        passes = []
        for _ in range(2):
            begin = time.perf_counter()
            keys = sorted(((i * 7919) % 1000, i % 13, (i * 31) % 17) for i in range(PROBE_ITEMS))
            table: dict = {}
            for key in keys:
                table[key] = table.get(key, 0) + 1
            passes.append(time.perf_counter() - begin)
        self.samples.append((start, time.perf_counter(), min(passes)))
        self._busy = False

    def __enter__(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn):
        """Run ``fn()``; return its result, its time and its time scaled to the reference speed."""
        self.sample()
        first = len(self.samples) - 1
        result = fn()
        self.sample()
        marks = self.samples[first:]
        seconds = scaled = 0.0
        for (_, end, before), (start, _, after) in zip(marks, marks[1:]):
            seconds += start - end
            scaled += (start - end) * 2 * REFERENCE_PROBE_S / (before + after)
        return result, seconds, scaled


def run_op(main, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            status = None
            traceback.print_exc()
    return status, out.getvalue(), err.getvalue()


def main() -> int:
    workload, seed, round_index, mode = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, str(ROOT / "src"))
    import loopschur.cli
    from workloads import build_ops

    ops = build_ops(workload, seed, round_index)
    tracer = None
    cli_main = loopschur.cli.main
    if mode == "traced":
        from tracing import SPAN_FIELDS, Tracer, install
        tracer = Tracer()
        cli_main = install(tracer)
    ready = time.monotonic()
    speed = Speedometer()
    speed.sample()
    record = {"ready": ready, "setup_scale": REFERENCE_PROBE_S / speed.samples[-1][2],
              "loopschur": loopschur.__file__}
    if mode == "setup":
        print(json.dumps(record))
        return 0

    results = []
    with speed:
        for index, argv in enumerate(ops):
            draws = 0
            if tracer is not None:
                tracer.trace_id = index
                draws = tracer.calls["involutions.sample"]
            (status, out, err), seconds, scaled = speed.measure(lambda: run_op(cli_main, argv))
            result = {"argv": argv, "status": status, "out": out, "err": err,
                      "seconds": seconds, "scaled_s": scaled}
            if tracer is not None:
                result["draws"] = tracer.calls["involutions.sample"] - draws
            results.append(result)
    record["ops"] = results
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["trace"] = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "items": tracer.items,
            "outer_calls": tracer.outer_calls,
            "inclusive_s": tracer.inclusive_s,
            "name_calls": tracer.name_calls,
            "spans": [dict(zip(SPAN_FIELDS, span)) for span in tracer.spans],
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

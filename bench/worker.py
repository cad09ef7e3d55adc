"""One benchmark process: one workload at one seed.

    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace]

run.py starts this in a fresh process with the thread variables of BLAS and
OpenMP set to 1 and ``src`` on PYTHONPATH.  It prints one JSON object as
its last line of stdout.

setup_s runs from the top of this file, after the interpreter has started,
to the end of the workload's set-up: importing numpy and melaplace and
building the transforms and contours the ops reuse.  It is scaled by the
calibration kernel run right after set-up.

Untraced, ops run in whole cycles for about ``--seconds``, and the latency
of every op, reference check included, is returned scaled by the
calibration kernel interleaved with the ops.  ``--part`` selects one of
the disjoint op streams of a seed; set-up is the same for every part.

Traced, a fixed number of cycles forms one pass, so that counts repeat
exactly for a seed; untraced and traced passes alternate until
``--seconds`` have passed, which gives the tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MAX_REPORTED_FAILURES = 5

# The machine this benchmark was built on (two shared cores) runs the same
# code 30-45% slower for spells of milliseconds to minutes.  Every process
# therefore samples the machine's speed while it runs: every CAL_PERIOD_S
# a timer signal runs a batch of a fixed calibration kernel, independent
# of melaplace, from its handler during set-up and long ops, and at the end
# of the op for short ones.  The first CAL_WARMUP units of a batch run
# untimed, so that the caches the interrupted code left behind stay out of
# the measurement.  Handler time is taken out of every measured interval,
# and the interval is scaled to a machine on which one unit takes
# CAL_REF_S: a slow spell slows the program and the kernel alike and
# cancels out.
CAL_PERIOD_S = 0.01
CAL_BATCH = 10
CAL_WARMUP = 2
CAL_REF_S = 25e-6
# ops are scaled by the speed of their segment of at least SEGMENT_S of op
# time
SEGMENT_S = 0.5


def calibration_unit() -> float:
    """Interpreter work of the kind an op does: calls, float and complex
    arithmetic, a small list."""
    acc = 0.0
    for k in range(1, 30):
        acc += (0.5 * k) ** 0.5 / (1.0 + k) + abs(complex(k, acc) / (k + 1j))
    return acc + sum(divmod(k * acc, 3.0)[1] for k in range(8))


class Calibrator:
    """Timer-driven calibration batches; ``total`` is the handler time,
    ``timed`` the time of the timed units and ``units`` their number.

    A tick that arrives in the first LONG_OP_S of an op is held until the
    op ends, so short ops are never interrupted and their tails stay
    clean; long ops are sampled from inside, where their time is spent.
    """

    LONG_OP_S = 0.02

    def __init__(self):
        self.total = self.timed = 0.0
        self.units = 0
        self._busy = False
        self._op_start = None
        self._held = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def op_begin(self):
        self._op_start = time.perf_counter()

    def op_end(self):
        self._op_start = None
        if self._held:
            self._held = False
            self._batch()

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives inside a batch is dropped
            return
        if (self._op_start is not None
                and time.perf_counter() - self._op_start < self.LONG_OP_S):
            self._held = True
            return
        self._batch()

    def _batch(self):
        self._busy = True
        t0 = time.perf_counter()
        for _ in range(CAL_WARMUP):
            calibration_unit()
        t1 = time.perf_counter()
        for _ in range(CAL_BATCH):
            calibration_unit()
        t2 = time.perf_counter()
        self.total += t2 - t0
        self.timed += t2 - t1
        self.units += CAL_BATCH
        self._busy = False

    def mark(self):
        return (time.perf_counter(), self.total, self.timed, self.units)

    @staticmethod
    def since(start, end):
        """(seconds of program time, speed) between two marks."""
        wall, total, timed, units = (b - a for a, b in zip(start, end))
        return wall - total, (CAL_REF_S * units / timed if units else None)


class Runner:
    """Runs op thunks, timing each and counting failures without stopping.
    With a calibrator, each op's time excludes the calibration handler and
    ops are grouped in segments of at least SEGMENT_S of op time, each with
    the speed measured over it."""

    def __init__(self, calibrator=None):
        self.latencies = []
        self.failed = 0
        self.cal = calibrator
        self.speeds = []  # per op: index into segment speeds
        self._segment_speeds = []
        self._open = None  # (mark, op time so far)

    def run(self, ops, tracer=None):
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            if self.cal is None:
                t0 = time.perf_counter()
                self._call(op)
                self.latencies.append(time.perf_counter() - t0)
                continue
            self.cal.op_begin()
            t0 = self.cal.mark()
            self._call(op)
            dt = Calibrator.since(t0, self.cal.mark())[0]
            self.cal.op_end()
            self.latencies.append(dt)
            self.speeds.append(len(self._segment_speeds))
            mark, busy = self._open or (t0, 0.0)
            self._open = (mark, busy + dt)
            if busy + dt >= SEGMENT_S:
                self.close_segment()

    def _call(self, op):
        try:
            op()
        except Exception as exc:  # a failed op is counted; the run goes on
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    def close_segment(self):
        if self._open is not None:
            self._segment_speeds.append(
                Calibrator.since(self._open[0], self.cal.mark())[1])
            self._open = None

    def scaled_latencies(self):
        """Op latencies at the reference speed of the calibration kernel;
        a segment without calibration batches takes the mean speed."""
        known = [sp for sp in self._segment_speeds if sp is not None]
        fallback = statistics.mean(known) if known else 1.0
        speeds = [sp or fallback for sp in self._segment_speeds]
        return [dt * speeds[i] for dt, i in zip(self.latencies, self.speeds)]


def timed_run(wl, seconds, cal):
    """Run whole cycles for about ``seconds``; a cycle is not begun once it
    would likely end past ``seconds``."""
    runner = Runner(cal)
    start = cal.mark()
    last = 0.0
    while not runner.latencies or time.perf_counter() - start[0] + 0.5 * last < seconds:
        c0 = time.perf_counter()
        runner.run(wl.cycle())
        last = time.perf_counter() - c0
    runner.close_segment()
    busy, speed = Calibrator.since(start, cal.mark())
    return {
        "latencies": runner.scaled_latencies(),
        "failed": runner.failed,
        "raw_ops_per_s": len(runner.latencies) / busy,
        "raw_op_ms_p50": 1e3 * statistics.median(runner.latencies),
        "speed": speed,
    }


def traced_run(make, seconds, spans_path):
    from tracer import Tracer

    def one_pass(tracer):
        wl = make()
        ops = [op for _ in range(wl.trace_cycles) for op in wl.cycle()]
        runner = Runner()
        t0 = time.perf_counter()
        if tracer is None:
            runner.run(ops)
        else:
            with tracer:
                runner.run(ops, tracer)
        return time.perf_counter() - t0, runner

    plain, traced, tracers = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for tracer in (None, Tracer()):
            wall, runner = one_pass(tracer)
            (plain if tracer is None else traced).append(wall)
            attempted += len(runner.latencies)
            failed += runner.failed
            if tracer is not None:
                tracers.append(tracer)
                # keep the spans of the first traced pass only
                if len(tracers) > 1:
                    tracer.spans.clear()
    first = tracers[0]
    repeatable = all(t.counts == first.counts for t in tracers)
    if not repeatable:
        print("trace counts differ between passes of one seed", file=sys.stderr)
    first.write_spans(spans_path)
    metrics = first.metrics()
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "repeatable": repeatable,
        "passes": len(traced),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    with Calibrator() as cal:
        start = (T0, 0.0, 0.0, 0)
        from workloads import WORKLOADS, m

        if Path(m.__file__).resolve().parent != SRC / "melaplace":
            print(f"melaplace was imported from {m.__file__}, not from {SRC}",
                  file=sys.stderr)
            return 2

        def make():
            return WORKLOADS[args.workload](args.seed, args.part)

        wl = make()
        setup_s, speed = Calibrator.since(start, cal.mark())
        result = {"setup_s": setup_s * (speed or 1.0), "raw_setup_s": setup_s}
        if not args.trace and not args.setup_only:
            result.update(timed_run(wl, args.seconds, cal))
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-seed{args.seed}.csv"
        result.update(traced_run(make, args.seconds, spans))
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

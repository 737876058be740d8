"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each stochfeas layer at the name
its caller resolves (``stochfeas.block.sample_index`` as well as
``stochfeas.fixedpoint.sample_index``, for example), so nothing inside the
package changes.  Wrappers are installed only around traced operations and
removed afterwards; untraced operations run the unmodified package.

A span carries name, start, end, parent and operation id.  Spans are kept in
memory (up to ``MAX_KEPT_SPANS``; aggregates cover every span) and written
out when the run ends.  Self time is a span's duration minus the time its
direct child spans cover; children always nest inside their parent because
each thread keeps its own span stack.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

import numpy as np

MAX_KEPT_SPANS = 200_000

# Per-layer metrics: name, unit, better direction, and the end-to-end metric
# (and workloads) each one is predicted to move.  ``geometry`` gets no
# metric because no solver path calls its cut algebra; ``rngstreams`` runs a
# few times per operation and gets none either.  Under the cli_signal
# workload's worker threads, span times include waits for the interpreter
# lock.
LAYER_METRICS = [
    ("operators.sample_index.us_per_call", "us", "lower",
     "iters_per_s on signal (~30% of an iteration) and sgd; no change on image"),
    ("operators.sample_index.calls_per_iter", "calls/iter", "lower", "iters_per_s on signal and sgd"),
    ("operators.slab.us_per_eval", "us", "lower", "iters_per_s on signal and cli_signal"),
    ("operators.slab.evals_per_iter", "evals/iter", "lower", "iters_per_s on signal and cli_signal"),
    ("operators.slab.noop_frac", "frac", "lower",
     "iters_per_s on signal and cli_signal (evaluations that returned x: wasted work)"),
    ("operators.ball.us_per_eval", "us", "lower", "iters_per_s on image"),
    ("operators.ball.noop_frac", "frac", "lower", "iters_per_s on image (wasted work)"),
    ("operators.box.us_per_eval", "us", "lower", "iters_per_s on image"),
    ("operators.fourier.us_per_eval", "us", "lower", "iters_per_s on image"),
    ("operators.fft_per_iter", "calls/iter", "lower", "iters_per_s on image"),
    ("operators.grad.us_per_eval", "us", "lower", "op_s_p50 and iters_per_s on sgd"),
    ("fixedpoint.sgd.self_us_per_iter", "us", "lower", "op_s_p50 and iters_per_s on sgd"),
    ("fixedpoint.spot_check_s", "s", "lower", "op_s_p50 and iters_per_s on sgd"),
    ("relaxation.sample.us_per_call", "us", "lower",
     "iters_per_s on signal and image (under 1% of an iteration: a small share)"),
    ("relaxation.sample.calls_per_iter", "calls/iter", "lower", "iters_per_s on signal and image"),
    ("block.self_us_per_iter", "us", "lower", "iters_per_s on signal and image"),
    ("block.span_us_per_iter", "us", "lower", "iters_per_s on signal and image (traced run_block)"),
    ("block.iters", "count", "higher", "none: block iterations in traced operations"),
    ("trace.append.us_per_call", "us", "lower", "iters_per_s on sgd and signal"),
    ("trace.rows_per_op", "rows/op", "lower", "iters_per_s on sgd and signal"),
    ("trace.write_csv.s", "s", "lower", "iters_per_s on cli_signal"),
    ("trace.bytes_written", "bytes", "lower", "iters_per_s on cli_signal"),
    ("diagnostics.reference.s", "s", "lower", "iters_per_s on cli_signal"),
    ("diagnostics.reference.iters", "count", "lower", "iters_per_s on cli_signal"),
    ("diagnostics.aggregate.s", "s", "lower", "iters_per_s on cli_signal"),
    ("experiments.problem.s", "s", "lower", "setup_s on signal, image and cli_signal"),
    ("experiments.family.s", "s", "lower", "setup_s on signal, image and cli_signal"),
    ("experiments.run_experiment.s", "s", "lower", "iters_per_s on cli_signal"),
    ("cli.op_s", "s", "lower", "iters_per_s on cli_signal (untraced wall time per invocation)"),
    ("cli.dispatch.s", "s", "lower", "iters_per_s on cli_signal"),
    ("cli.write.s", "s", "lower", "iters_per_s on cli_signal"),
    ("cli.workers", "count", "higher", "none: STOCHFEAS_THREADS of the invocation"),
    ("trace.overhead_frac", "frac", "lower",
     "none: 1 - traced / untraced iters_per_s; never folded into an end-to-end metric"),
]

# layers run_block calls; with its own self time they make up its span
_BLOCK_CHILDREN = ("operators.sample_index", "operators.slab", "operators.ball",
                   "operators.box", "operators.fourier", "relaxation.sample",
                   "trace.append")

# spans whose first start and last end per operation are kept
_MARKED = ("experiments.run_experiment", "cli.execute")

_OPERATOR_KINDS = (("slab", "operators.slab"), ("G[ball", "operators.ball"),
                   ("proj_box", "operators.box"), ("proj_fourier", "operators.fourier"))


def _operator_kind(member):
    """(span name, no-op counter name) of a family member, or None."""
    name = getattr(member, "name", "")
    if isinstance(name, str):
        for prefix, span in _OPERATOR_KINDS:
            if name.startswith(prefix):
                return span, span + ".noop"
    return None


class _ThreadState:
    __slots__ = ("stack", "agg", "counts", "marks", "thread")

    def __init__(self):
        self.stack = []       # frames: [name, start, child_time, span_id]
        self.agg = {}         # name -> [calls, total_s, self_s]
        self.counts = {}      # counter name -> value
        self.marks = {}       # (name, op) -> [first_start, last_end]
        self.thread = threading.get_ident()


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.op = -1
        self._local = threading.local()
        self._states = []
        self._ids = itertools.count(1)   # next() on a count is atomic in CPython
        self._patches = []
        self._family_kinds = {}
        self.spans = []

    # -- recording -------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            self._states.append(st)
        return st

    def count(self, name, value=1):
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    def call(self, name, fn, args, kwargs, after=None):
        """Run ``fn`` inside a span; ``after(state, frames, result)`` may add counts."""
        st = self._state()
        stack = st.stack
        parent = stack[-1][3] if stack else 0
        span_id = next(self._ids)
        frame = [name, time.perf_counter(), 0.0, span_id]
        stack.append(frame)
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            start = frame[1]
            dur = end - start
            if stack:
                stack[-1][2] += dur
            rec = st.agg.get(name)
            if rec is None:
                rec = st.agg[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[2]
            if name in _MARKED:
                mark = st.marks.setdefault((name, self.op), [start, end])
                mark[0] = min(mark[0], start)
                mark[1] = max(mark[1], end)
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((name, start, end, parent, self.op, st.thread, span_id))
        if after is not None:
            after(st, stack, out)
        return out

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner, attr, name, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, after)
            return wrapper
        self._patch(owner, attr, make)

    def _counter(self, owner, attr, name):
        """Count calls made during operations (not during set-up, op -1)."""
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.op >= 0:
                    self.count(name)
                return fn(*args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def _kinds(self, family):
        kinds = self._family_kinds.get(id(family))
        if kinds is None:
            kinds = [_operator_kind(m) for m in family.members]
            # keep the family alive so its id is not reused
            self._family_kinds[id(family)] = kinds = (family, kinds)
        return kinds[1]

    def _apply_wrapper(self, fn):
        def apply(family, k, x):
            kind = self._kinds(family)[k]
            if kind is None:
                return fn(family, k, x)
            out = self.call(kind[0], fn, (family, k, x), {})
            if out is x:
                self.count(kind[1])
            return out
        return apply

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        import numpy.fft

        from stochfeas import block, cli, diagnostics, experiments, fixedpoint, operators
        from stochfeas import relaxation, trace

        def count_iterations(counter):
            def after(st, stack, out):
                result_trace = out[1] if isinstance(out, tuple) else out.trace
                iters = int(result_trace.footer["iterations_run"])
                st.counts[counter] = st.counts.get(counter, 0) + iters
                if counter == "block.iters" and stack and stack[-1][0] == "diagnostics.reference":
                    st.counts["reference.iters"] = st.counts.get("reference.iters", 0) + iters
            return after

        for module in (block, fixedpoint):
            self._span(module, "sample_index", "operators.sample_index")
        self._patch(operators.OperatorFamily, "apply", self._apply_wrapper)
        self._counter(numpy.fft, "fft2", "fft")
        self._counter(numpy.fft, "ifft2", "fft")
        for cls in (relaxation.Constant, relaxation.TwoPoint, relaxation.UniformInterval):
            self._span(cls, "sample", "relaxation.sample")
        self._span(fixedpoint.GradientFamily, "gradient", "operators.grad")
        self._span(fixedpoint.GradientFamily, "spot_check_unbiased", "fixedpoint.spot_check")
        self._span(fixedpoint, "run_sgd", "fixedpoint.run_sgd", count_iterations("sgd.iters"))
        for module in (block, experiments, cli):
            self._span(module, "run_block", "block.run_block", count_iterations("block.iters"))
        self._span(trace.ConvergenceTrace, "append", "trace.append")
        self._span(trace.ConvergenceTrace, "write_csv", "trace.write_csv")
        self._span(diagnostics.AveragedTrace, "write_csv", "trace.write_csv")
        self._span(experiments, "estimate_reference_solution", "diagnostics.reference")
        self._span(experiments, "aggregate_runs", "diagnostics.aggregate")
        for module in (experiments, cli):
            for attr in ("desk_signal_problem", "desk_image_problem"):
                self._span(module, attr, "experiments.problem")
        for cls in (experiments.SignalProblem, experiments.ImageProblem):
            self._span(cls, "build_family", "experiments.family")
        self._span(cli, "run_experiment", "experiments.run_experiment")
        self._span(cli, "execute", "cli.execute")
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def totals(self):
        """Merge per-thread aggregates: (agg, counts, marks)."""
        agg, counts, marks = {}, {}, {}
        for st in self._states:
            for name, (calls, total, self_s) in st.agg.items():
                rec = agg.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for name, value in st.counts.items():
                counts[name] = counts.get(name, 0) + value
            for key, (first, last) in st.marks.items():
                mark = marks.setdefault(key, [first, last])
                mark[0] = min(mark[0], first)
                mark[1] = max(mark[1], last)
        return agg, counts, marks

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in cols[0]], dtype=np.int32),
            start=np.array(cols[1], dtype=np.float64),
            end=np.array(cols[2], dtype=np.float64),
            parent=np.array(cols[3], dtype=np.int64),
            op=np.array(cols[4], dtype=np.int64),
            thread=np.array(cols[5], dtype=np.int64),
            span_id=np.array(cols[6], dtype=np.int64),
        )


def layer_metrics(tracer, traced_ops, untraced_rate, traced_rate, cli_op_s,
                  bytes_per_op, workers, slowdown):
    """Per-layer metric values from the traced operations.

    Span times are divided by ``slowdown`` (see calibration.py) like the
    end-to-end times; ``cli_op_s`` arrives already scaled.
    """
    agg, counts, marks = tracer.totals()
    block_iters = counts.get("block.iters", 0)
    sgd_iters = counts.get("sgd.iters", 0)
    solver_iters = block_iters + sgd_iters

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def mean(name, scale=1.0):
        n, total, _ = agg.get(name, (0, 0.0, 0.0))
        return scale * total / n / slowdown if n else 0.0

    def per(value, base):
        return value / base if base else 0.0

    def noop(name):
        return per(counts.get(name + ".noop", 0), calls(name))

    run_block_total = agg.get("block.run_block", (0, 0.0, 0.0))[1]
    # per CLI invocation: dispatch spans the first to the last experiment,
    # writing runs from the last experiment's end to the end of execute
    dispatch, write = [], []
    for (name, op), run in marks.items():
        if name != "experiments.run_experiment":
            continue
        dispatch.append(run[1] - run[0])
        exe = marks.get(("cli.execute", op))
        if exe is not None:
            write.append(exe[1] - run[1])

    return {
        "operators.sample_index.us_per_call": mean("operators.sample_index", 1e6),
        "operators.sample_index.calls_per_iter": per(calls("operators.sample_index"), solver_iters),
        "operators.slab.us_per_eval": mean("operators.slab", 1e6),
        "operators.slab.evals_per_iter": per(calls("operators.slab"), block_iters),
        "operators.slab.noop_frac": noop("operators.slab"),
        "operators.ball.us_per_eval": mean("operators.ball", 1e6),
        "operators.ball.noop_frac": noop("operators.ball"),
        "operators.box.us_per_eval": mean("operators.box", 1e6),
        "operators.fourier.us_per_eval": mean("operators.fourier", 1e6),
        "operators.fft_per_iter": per(counts.get("fft", 0), block_iters),
        "operators.grad.us_per_eval": mean("operators.grad", 1e6),
        "fixedpoint.sgd.self_us_per_iter": per(
            1e6 / slowdown * agg.get("fixedpoint.run_sgd", (0, 0.0, 0.0))[2], sgd_iters),
        "fixedpoint.spot_check_s": mean("fixedpoint.spot_check"),
        "relaxation.sample.us_per_call": mean("relaxation.sample", 1e6),
        "relaxation.sample.calls_per_iter": per(calls("relaxation.sample"), block_iters),
        "block.self_us_per_iter": per(
            1e6 / slowdown * agg.get("block.run_block", (0, 0.0, 0.0))[2], block_iters),
        "block.span_us_per_iter": per(1e6 / slowdown * run_block_total, block_iters),
        "block.iters": block_iters,
        "trace.append.us_per_call": mean("trace.append", 1e6),
        "trace.rows_per_op": per(calls("trace.append"), traced_ops),
        "trace.write_csv.s": mean("trace.write_csv"),
        "trace.bytes_written": bytes_per_op,
        "diagnostics.reference.s": mean("diagnostics.reference"),
        "diagnostics.reference.iters": per(counts.get("reference.iters", 0),
                                           calls("diagnostics.reference")),
        "diagnostics.aggregate.s": mean("diagnostics.aggregate"),
        "experiments.problem.s": mean("experiments.problem"),
        "experiments.family.s": mean("experiments.family"),
        "experiments.run_experiment.s": mean("experiments.run_experiment"),
        "cli.op_s": cli_op_s,
        "cli.dispatch.s": float(np.median(dispatch)) / slowdown if dispatch else 0.0,
        "cli.write.s": float(np.median(write)) / slowdown if write else 0.0,
        "cli.workers": workers,
        "trace.overhead_frac": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
    }


def block_accounting(tracer, slowdown):
    """Self time per block iteration of run_block and of each layer it calls, in us.

    The parts add up to the traced run_block span; the span exceeds the
    untraced iteration by the tracing overhead.
    """
    agg, counts, _ = tracer.totals()
    iters = counts.get("block.iters", 0)
    if not iters:
        return {}
    scale = 1e6 / slowdown / iters
    parts = {name: scale * agg[name][2]
             for name in ("block.run_block",) + _BLOCK_CHILDREN if name in agg}
    parts["span"] = scale * agg["block.run_block"][1]
    return parts

"""Outside-in span tracer for the glrfusion benchmark.

Only the traced run installs it.  The library is not edited: the tracer
replaces the module-level names through which one glrfusion module calls
another (``glrfusion.harness.detect`` is the binding ``run_null`` looks up at
call time) with timing wrappers, and restores them on exit.  The benchmark's
own calls into the top-level API go through :meth:`Tracer.entry`.

Every wrapped call records one span: name, start, end, parent span, and the
trial or grid-cell id it belongs to.  Spans stay in memory; self times are
computed from them after the run, and :meth:`Tracer.dump` writes them once.
A target that no longer exists (a later refactor removed it) is skipped and
listed in :attr:`Tracer.missing`; its metrics then read zero.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name).  The first component of the span name is
# the layer the time is charged to; "lapack" spans belong to the linalg layer.
TARGETS = (
    ("glrfusion.harness", "simulate", "measurement.simulate"),
    ("glrfusion.harness", "draw_amplitudes", "measurement.draw_amplitudes"),
    ("glrfusion.harness", "detect", "detectors.detect"),
    ("glrfusion.harness", "narrowband_channel", "channel.build"),
    ("glrfusion.detectors", "sample_covariance", "measurement.sample_covariance"),
    ("glrfusion.detectors", "hermitian_eig", "linalg.hermitian_eig"),
    ("glrfusion.detectors", "orthonormal_basis", "linalg.orthonormal_basis"),
    ("glrfusion.detectors", "rayleigh_extremes", "linalg.rayleigh_extremes"),
    ("glrfusion.cli", "load_measurements", "measurement.load"),
    ("glrfusion.cli", "scan_likelihood_image", "harness.scan_likelihood_image"),
    ("glrfusion.fusion", "ml_amplitudes", "measurement.ml_amplitudes"),
    ("glrfusion.fusion", "orthonormal_basis", "linalg.orthonormal_basis"),
    ("glrfusion.fusion", "projected_energy", "linalg.projected_energy"),
    ("numpy.linalg", "eigh", "lapack.eigh"),
    ("numpy.linalg", "eigvalsh", "lapack.eigvalsh"),
    ("numpy.linalg", "svd", "lapack.svd"),
)

LAYERS = ("bench", "cli", "harness", "detectors", "linalg", "measurement",
          "channel", "fusion")
ROWS = ("known_f", "unknown_gains", "unknown_subspace")

# Span fields, stored as lists for cheap appends.
NAME, START, END, PARENT, ITEM, INFO = range(6)


def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    return "linalg" if head == "lapack" else head


def _lapack_flops(name: str, shape: tuple[int, ...]) -> float:
    """Real floating-point operations of one LAPACK call, computed from its shape.

    Golub & Van Loan counts (Matrix Computations, 4th ed., Fig. 8.6.1 and
    5.4.5): symmetric eigenvalues 4n^3/3, eigenvalues and vectors 9n^3,
    thin SVD with U of an m x n matrix (m >= n) 6mn^2 + 11n^3.  Complex
    arithmetic costs four real operations each.
    """
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    batch = 1
    for d in shape[:-2]:
        batch *= d
    if name == "lapack.eigvalsh":
        real = 4.0 * n ** 3 / 3.0
    elif name == "lapack.eigh":
        real = 9.0 * n ** 3
    else:
        big, small = max(m, n), min(m, n)
        real = 6.0 * big * small ** 2 + 11.0 * small ** 3
    return 4.0 * batch * real


def _describe(name: str, args, kwargs, result):
    """Per-span detail the metrics need; None where nothing is recorded."""
    if name == "detectors.detect":
        return (args[0].channel_knowledge.value,
                not math.isfinite(result.composite),
                bool(result.degenerate))
    if name == "measurement.sample_covariance":
        return 16 * args[0].n_total ** 2
    if name.startswith("lapack."):
        shape = tuple(getattr(args[0], "shape", ()))
        return (shape[-1] if shape else 0, _lapack_flops(name, shape))
    return None


class Tracer:
    """Records spans while installed; a disabled tracer wraps nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.item = None
        self._stack: list[int] = []
        self._cell: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if "trial" in kwargs:
                tracer.item = kwargs["trial"]
            elif name == "detectors.detect" and tracer._cell is not None:
                tracer.item = tracer._cell
                tracer._cell += 1
            elif name == "harness.scan_likelihood_image":
                tracer._cell = 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if name == "harness.scan_likelihood_image":
                    tracer._cell = None
            try:
                span[INFO] = _describe(name, args, kwargs, result)
            except Exception:  # the tracer must never break the traced call
                span[INFO] = None
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def entry(self, name: str, fn):
        """The benchmark's handle on a top-level API function."""
        return self._wrap(name, fn) if self.enabled else fn

    def __enter__(self):
        if not self.enabled:
            return self
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer self times and exact counts, keyed by metric name."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layer_s = {layer: 0.0 for layer in LAYERS}
        row_s = {row: 0.0 for row in ROWS}
        nonfinite = degenerate = harness_trials = 0
        cov_bytes = 0
        flops = 0.0
        eig_dim = 0
        in_experiment = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            name = s[NAME]
            calls[name] += 1
            self_s[name] += own[i]
            layer_s[_layer(name)] += own[i]
            parent = s[PARENT]
            in_experiment[i] = name in ("harness.run_roc", "harness.run_null") or (
                parent >= 0 and in_experiment[parent])
            info = s[INFO]
            if name == "detectors.detect":
                if in_experiment[i]:
                    harness_trials += 1
                if info is not None:
                    row_s[info[0]] += own[i]
                    nonfinite += info[1]
                    degenerate += info[2]
            elif name == "measurement.sample_covariance" and info is not None:
                cov_bytes += info
            elif name.startswith("lapack.") and info is not None:
                flops += info[1]
                if name != "lapack.svd":
                    eig_dim = max(eig_dim, info[0])
        lapack_names = ("lapack.eigh", "lapack.eigvalsh", "lapack.svd")
        out = {
            "trace.self_sum_s": sum(own),
            "harness.trials": harness_trials,
            "measurement.simulate.calls": calls["measurement.simulate"],
            "measurement.simulate.self_s": (self_s["measurement.simulate"]
                                            + self_s["measurement.draw_amplitudes"]),
            "measurement.sample_covariance.calls": calls["measurement.sample_covariance"],
            "measurement.sample_covariance.self_s": self_s["measurement.sample_covariance"],
            "measurement.sample_covariance.bytes": cov_bytes,
            "measurement.load.self_s": self_s["measurement.load"],
            "channel.build.calls": calls["channel.build"],
            "channel.build.self_s": self_s["channel.build"],
            "detectors.detect.calls": calls["detectors.detect"],
            "detectors.nonfinite": nonfinite,
            "detectors.degenerate": degenerate,
            "linalg.hermitian_eig.calls": calls["linalg.hermitian_eig"],
            "linalg.hermitian_eig.self_s": self_s["linalg.hermitian_eig"],
            "linalg.orthonormal_basis.calls": calls["linalg.orthonormal_basis"],
            "linalg.orthonormal_basis.self_s": self_s["linalg.orthonormal_basis"],
            "linalg.lapack.calls": sum(calls[n] for n in lapack_names),
            "linalg.lapack_s": sum(self_s[n] for n in lapack_names),
            "linalg.lapack_flops": flops,
            "linalg.eig_dim_max": eig_dim,
            "fusion.channel_message.self_s": self_s["fusion.channel_message"],
            "fusion.daisy_chain_fuse.self_s": self_s["fusion.daisy_chain_fuse"],
            "fusion.partition_cv.self_s": self_s["fusion.partition_cv"],
        }
        for row in ROWS:
            out[f"detectors.detect.self_s.{row}"] = row_s[row]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s[layer]
        return out

    def dump(self, path: Path) -> None:
        """Write every span once, after the run."""
        own = self.self_times()
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[ITEM], own[i]]
                for i, s in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "item", "self_s"],
            "missing_targets": self.missing,
            "spans": rows,
        }, default=str))

"""Per-layer tracer, installed from outside the ``ellr`` package.

Every public function defined in an ``ellr`` module is wrapped in a span,
and the wrapper is bound in every ``ellr`` namespace that holds the
function (``from .x import f`` makes copies of the binding; a lazy
``from .linalg import svd_rank`` inside a function reads the module
attribute at call time).  A layer is a module, except that the exact
integer eliminations of ``ellr.linalg`` serve the classical oracle and are
counted in ``classical``.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  Counters are taken at the
same boundaries.  SVDs are counted by wrapping ``numpy.linalg.svd`` (and
``scipy.linalg.svd``) while the tracer is installed; their flop counts are
computed from the input shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

import numpy as np

LAYERS = ("theta", "rmatrix", "tensorops", "linalg", "classical", "verifiers", "cli")
EXACT_ORACLE = ("exact_rank", "exact_nullspace", "exact_row_space_intersection")
CHAIN_OPS = ("t_op", "f_op", "m_op")
PER_LAYER_METRICS = (
    ("theta.self_s", "s"), ("theta.theta1_calls", "count"),
    ("theta.theta_alpha_calls", "count"),
    ("rmatrix.self_s", "s"), ("rmatrix.r_matrix_calls", "count"),
    ("rmatrix.r_matrix_distinct", "count"),
    ("tensorops.self_s", "s"), ("tensorops.chain_calls", "count"),
    ("tensorops.embed_pair_calls", "count"), ("tensorops.max_dim", "count"),
    ("linalg.self_s", "s"), ("linalg.svd_count", "count"),
    ("linalg.svd_computed_gflop", "GFLOP"), ("linalg.max_svd_dim", "count"),
    ("linalg.min_gap_decades", "decades"),
    ("classical.self_s", "s"), ("classical.exact_calls", "count"),
    ("classical.exact_rows_in", "count"),
    ("verifiers.self_s", "s"), ("verifiers.check_calls", "count"),
    ("cli.self_s", "s"), ("cli.build_report_s", "s"), ("cli.emit_s", "s"),
)


def svd_flops(shape, compute_uv=True) -> float:
    """Real flops of a dense complex SVD of an m x n matrix, from the
    Golub-Van Loan counts (R-SVD with U, S, V; Golub-Reinsch for S only),
    times 4 for complex arithmetic."""
    m, n = max(shape[-2:]), min(shape[-2:])
    real = 4 * m * m * n + 22 * n ** 3 if compute_uv else 4 * m * n * n - 4 * n ** 3 / 3
    return 4.0 * real


class Tracer:
    """Wraps the ``ellr`` modules on ``install`` and restores them on
    ``uninstall``; ``reset`` starts a new pass, ``snapshot`` reads it."""

    def __init__(self, check_functions):
        self.check_functions = set(check_functions)
        self._restore = []
        self.reset()

    def reset(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.fn_self_s = {}
        self.calls = {}
        self.top_s = 0.0
        self.r_keys = set()
        self.chain_calls = 0
        self.max_dim = 0
        self.svd_count = 0
        self.svd_flops = 0.0
        self.max_svd_dim = 0
        self.min_gap = math.inf
        self.exact_calls = 0
        self.exact_rows_in = 0
        self._stack = []  # [child seconds, function name] per open span

    # -- installation --------------------------------------------------------

    def install(self):
        import ellr
        import ellr.cli

        modules = [importlib.import_module(f"ellr.{name}") for name in LAYERS]
        namespaces = [ellr] + modules
        wrappers = {}
        for module in modules:
            layer = module.__name__.split(".")[1]
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                fn_layer = "classical" if name in EXACT_ORACLE else layer
                wrappers[fn] = self._span(fn, fn_layer, f"{layer}.{name}")
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((ns, name, value))
                    setattr(ns, name, wrappers[value])
        self._patch_svd()

    def uninstall(self):
        for ns, name, value in reversed(self._restore):
            setattr(ns, name, value)
        self._restore.clear()

    def _patch_svd(self):
        import scipy.linalg

        for ns in (np.linalg, scipy.linalg):
            original = ns.svd
            self._restore.append((ns, "svd", original))
            ns.svd = self._counted_svd(original)

    def _counted_svd(self, svd):
        tracer = self

        @functools.wraps(svd)
        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            tracer.svd_count += 1
            tracer.svd_flops += svd_flops(shape, compute_uv)
            tracer.max_svd_dim = max(tracer.max_svd_dim, *shape[-2:])
            return svd(a, *args, **kwargs)

        return counted

    # -- spans ---------------------------------------------------------------

    def _span(self, fn, layer, qualname):
        tracer = self
        name = fn.__name__
        hook = self._hook_for(layer, name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            stack.append([0.0, name])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                own = duration - stack.pop()[0]
                tracer.self_s[layer] += own
                tracer.fn_self_s[qualname] = tracer.fn_self_s.get(qualname, 0.0) + own
                tracer.calls[qualname] = tracer.calls.get(qualname, 0) + 1
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.top_s += duration
            if hook is not None:
                hook(args, kwargs, result, parent)
            return result

        return span

    def _hook_for(self, layer, name):
        if name == "r_matrix":
            return self._on_r_matrix
        if name in ("exact_rank", "exact_nullspace"):
            return self._on_exact
        if name == "svd_rank":
            return self._on_svd_rank
        if layer == "tensorops":
            return self._on_chain if name in CHAIN_OPS else self._on_tensorop
        return None

    def _on_r_matrix(self, args, kwargs, result, parent):
        params, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
        self.r_keys.add((params.n, params.k, complex(params.eta), complex(params.tau),
                         complex(z)))

    def _on_exact(self, args, kwargs, result, parent):
        self.exact_calls += 1
        self.exact_rows_in += len(args[0] if args else kwargs["rows"])

    def _on_svd_rank(self, args, kwargs, result, parent):
        gap = result[1]
        if math.isfinite(gap) and gap > 0:
            self.min_gap = min(self.min_gap, gap)

    def _on_chain(self, args, kwargs, result, parent):
        if parent not in CHAIN_OPS:
            self.chain_calls += 1
        self._on_tensorop(args, kwargs, result, parent)

    def _on_tensorop(self, args, kwargs, result, parent):
        mat = getattr(result, "mat", result)
        if isinstance(mat, np.ndarray) and mat.ndim == 2:
            self.max_dim = max(self.max_dim, mat.shape[0])
        elif hasattr(result, "ambient_dim"):
            self.max_dim = max(self.max_dim, result.ambient_dim)

    # -- readout -------------------------------------------------------------

    def snapshot(self) -> dict:
        """The per-layer metrics of the pass since the last reset."""
        calls = self.calls
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "theta.theta1_calls": calls.get("theta.theta1", 0),
            "theta.theta_alpha_calls": calls.get("theta.theta_alpha", 0),
            "rmatrix.r_matrix_calls": calls.get("rmatrix.r_matrix", 0),
            "rmatrix.r_matrix_distinct": len(self.r_keys),
            "tensorops.chain_calls": self.chain_calls,
            "tensorops.embed_pair_calls": calls.get("tensorops.embed_pair", 0),
            "tensorops.max_dim": self.max_dim,
            "linalg.svd_count": self.svd_count,
            "linalg.svd_computed_gflop": self.svd_flops / 1e9,
            "linalg.max_svd_dim": self.max_svd_dim,
            "linalg.min_gap_decades": (math.log10(self.min_gap)
                                       if math.isfinite(self.min_gap) else 0.0),
            "classical.exact_calls": self.exact_calls,
            "classical.exact_rows_in": self.exact_rows_in,
            "verifiers.check_calls": sum(calls.get(f"verifiers.{name}", 0)
                                         for name in self.check_functions),
            "cli.build_report_s": self.fn_self_s.get("cli.build_report", 0.0),
            "cli.emit_s": self.fn_self_s.get("cli.emit", 0.0),
        })
        return out

    def layer_calls(self) -> dict:
        """Span count per layer in the pass since the last reset."""
        counts = dict.fromkeys(LAYERS, 0)
        for qualname, count in self.calls.items():
            module, name = qualname.split(".", 1)
            counts["classical" if name in EXACT_ORACLE else module] += count
        return counts

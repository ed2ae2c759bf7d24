"""Spans around isingcorr's public functions, installed from outside the program.

The package binds names across modules (`from .fredholm import build_kernel`,
the verify suite table, the package namespace), so a wrapper replaces every
binding of a function in every isingcorr module; methods are patched on
their class.  Functions a later version of the program no longer has are
skipped, and their metrics read 0.

Each span keeps a name, start, end, parent span and op id in flat arrays;
they stay in memory until the run writes them out.  Layer times are self
times: a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

#: (module, attribute, span name) for plain functions
FUNCTIONS = [
    ("toeplitz", "fourier_coeff", "toeplitz.coeff"),
    ("toeplitz", "det_DN", "toeplitz.lu"),
    ("toeplitz", "det_DhatN", "toeplitz.lu"),
    ("toeplitz", "solve_x", "toeplitz.solve"),
    ("quadrature", "chain_integral", "quadrature.chain"),
    ("fredholm", "build_kernel", "fredholm.kernel"),
    ("fredholm", "ff_coeffs_complex", "fredholm.ffcoef"),
    ("fredholm", "ff_coeffs", "fredholm.ffcoef"),
    ("fredholm", "log_det_expansion", "fredholm.logdet"),
    ("expansions", "correlation", "expansions.corr"),
    ("expansions", "F_2n", "expansions.term"),
    ("expansions", "Ftilde_2n", "expansions.term"),
    ("expansions", "phi_2n", "expansions.term"),
    ("expansions", "G_2n1", "expansions.term"),
    ("expansions", "f_2n", None),     # named per call by its method
    ("expansions", "f_2n1", None),
    ("expansions", "cauchy_identity_residual", "expansions.identity"),
    ("cli", "main", "cli.self"),
]

#: (module, class, method, span name)
METHODS = [
    ("kernels", "KernelSet", "phi", "kernels.eval"),
    ("kernels", "KernelSet", "qq", "kernels.eval"),
    ("kernels", "KernelSet", "pp", "kernels.eval"),
    ("kernels", "KernelSet", "qq_hat", "kernels.eval"),
    ("kernels", "KernelSet", "pp_hat", "kernels.eval"),
    ("quadrature", "ContourGrid", "cauchy_matrix", "quadrature.cauchy"),
    ("fredholm", "KernelMatrix", "eigenvalues", "fredholm.eig"),
    ("fredholm", "KernelMatrix", "trace_power", "fredholm.trace"),
]

SUITES = ("lemma1", "lemma2", "cauchy", "perm", "resum", "fredholm", "szego")

#: every per-layer metric with its unit; times are self ms per op, counts per op
PER_LAYER = {
    "toeplitz.coeff_calls": "1/op", "toeplitz.coeff_computed": "1/op",
    "toeplitz.coeff_ms": "ms/op", "toeplitz.det_calls": "1/op",
    "toeplitz.lu_ms": "ms/op", "toeplitz.solve_ms": "ms/op",
    "kernels.eval_calls": "1/op", "kernels.eval_ms": "ms/op",
    "quadrature.cauchy_builds": "1/op", "quadrature.cauchy_ms": "ms/op",
    "quadrature.chain_calls": "1/op", "quadrature.chain_ms": "ms/op",
    "fredholm.kernel_calls": "1/op", "fredholm.kernel_ms": "ms/op",
    "fredholm.kernel_melems": "Melem/op", "fredholm.kernels_per_ff": "1/op",
    "fredholm.eig_calls": "1/op", "fredholm.eig_ms": "ms/op",
    "fredholm.trace_ms": "ms/op", "fredholm.ffcoef_ms": "ms/op",
    "fredholm.logdet_ms": "ms/op",
    "expansions.corr_ms": "ms/op", "expansions.term_calls": "1/op",
    "expansions.term_ms": "ms/op", "expansions.oddff_calls": "1/op",
    "expansions.oddff_ms": "ms/op", "expansions.direct_ms": "ms/op",
    "expansions.identity_ms": "ms/op",
    **{f"verify.{s}_ms": "ms/op" for s in SUITES},
    "cli.self_ms": "ms/op",
    "trace.overhead_pct": "%",
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _f_2n_name(args, kwargs):
    n = _arg(args, kwargs, 3, "n")
    method = _arg(args, kwargs, 5, "method")
    if method is None:
        method = "direct" if n <= 2 else "eigen"
    return "expansions.direct" if method == "direct" else "expansions.term"


def _f_2n1_name(args, kwargs):
    method = _arg(args, kwargs, 4, "method", "combination")
    return "expansions.direct" if method == "direct" else "expansions.oddff"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []      # [span index, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.coeff_keys: set = set()
        self.cauchy_builds = 0
        self.eig_computed = 0
        self.kernel_melems = 0.0
        self.kernels_by_route: Counter = Counter()
        self.ops_by_route: Counter = Counter()
        self.op = -1
        self.route = None
        self._undo: list = []

    # ------------------------------------------------------------------
    def begin_op(self, route: str) -> None:
        self.op += 1
        self.route = route
        self.ops_by_route[route] += 1

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    # counters that need a look at the arguments before the call
    def _count_coeff(self, args, kwargs) -> None:
        params, grid, n = args[:3]
        symbol = _arg(args, kwargs, 3, "symbol")
        # the shifted symbol's b_n is a_{n-1}: one coefficient under two names
        if getattr(symbol, "value", None) == "phi1":
            n -= 1
        self.coeff_keys.add((params.kind, params.alpha1, params.alpha2, grid.M, grid.r, n))

    def _count_cauchy(self, args, kwargs) -> None:
        if getattr(args[0], "_cauchy", None) is None:
            self.cauchy_builds += 1

    def _count_eig(self, args, kwargs) -> None:
        if getattr(args[0], "_eigs", None) is None:
            self.eig_computed += 1

    def _count_kernel(self, args, kwargs) -> None:
        grid = _arg(args, kwargs, 1, "grid")
        self.kernel_melems += grid.M * grid.M / 1e6
        self.kernels_by_route[self.route] += 1

    def _wrap(self, fn, name, namer=None):
        tracer = self
        stack = self._stack
        names, parents, op_ids = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        self_s, calls = self.self_s, self.calls
        counter = {
            "toeplitz.coeff": self._count_coeff,
            "quadrature.cauchy": self._count_cauchy,
            "fredholm.eig": self._count_eig,
            "fredholm.kernel": self._count_kernel,
        }.get(name)
        fixed_id = None if namer else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if namer is None:
                label, name_id = name, fixed_id
            else:
                label = namer(args, kwargs)
                name_id = tracer._name_id(label)
            calls[label] += 1
            if counter is not None:
                counter(args, kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            op_ids.append(tracer.op)
            frame = [idx, 0.0]
            stack.append(frame)
            ends.append(0.0)
            start = perf_counter()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                ends[idx] = end
                self_s[label] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        mods = {key: mod for key, mod in sys.modules.items()
                if key == "isingcorr" or key.startswith("isingcorr.")}

        def rebind(original, wrapper):
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        for modname, attr, name in FUNCTIONS:
            mod = mods.get(f"isingcorr.{modname}")
            original = getattr(mod, attr, None)
            if original is None:
                continue
            namer = {"f_2n": _f_2n_name, "f_2n1": _f_2n1_name}.get(attr)
            rebind(original, self._wrap(original, name, namer))
        for modname, clsname, meth, name in METHODS:
            cls = getattr(mods.get(f"isingcorr.{modname}"), clsname, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                continue
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))
        verify = mods.get("isingcorr.verify")
        table = getattr(verify, "SUITES", {})
        for suite in SUITES:
            original = table.get(suite)
            if original is None:
                continue
            wrapper = self._wrap(original, f"verify.{suite}")
            rebind(original, wrapper)
            self._undo.append((table, suite, original))
            table[suite] = wrapper

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def metrics(self, ops: int, overhead_pct: float) -> dict:
        """Per-layer metrics, each normalised by the ops of the traced pass."""
        per_op = 1.0 / max(ops, 1)

        def ms(label):
            return self.self_s.get(label, 0.0) * 1e3 * per_op

        def calls(label):
            return self.calls.get(label, 0) * per_op

        ff_ops = self.ops_by_route.get("ff", 0)
        values = {
            "toeplitz.coeff_calls": calls("toeplitz.coeff"),
            "toeplitz.coeff_computed": len(self.coeff_keys) * per_op,
            "toeplitz.coeff_ms": ms("toeplitz.coeff"),
            "toeplitz.det_calls": calls("toeplitz.lu"),
            "toeplitz.lu_ms": ms("toeplitz.lu"),
            "toeplitz.solve_ms": ms("toeplitz.solve"),
            "kernels.eval_calls": calls("kernels.eval"),
            "kernels.eval_ms": ms("kernels.eval"),
            "quadrature.cauchy_builds": self.cauchy_builds * per_op,
            "quadrature.cauchy_ms": ms("quadrature.cauchy"),
            "quadrature.chain_calls": calls("quadrature.chain"),
            "quadrature.chain_ms": ms("quadrature.chain"),
            "fredholm.kernel_calls": calls("fredholm.kernel"),
            "fredholm.kernel_ms": ms("fredholm.kernel"),
            "fredholm.kernel_melems": self.kernel_melems * per_op,
            "fredholm.kernels_per_ff": self.kernels_by_route.get("ff", 0) / ff_ops if ff_ops else 0.0,
            "fredholm.eig_calls": self.eig_computed * per_op,
            "fredholm.eig_ms": ms("fredholm.eig"),
            "fredholm.trace_ms": ms("fredholm.trace"),
            "fredholm.ffcoef_ms": ms("fredholm.ffcoef"),
            "fredholm.logdet_ms": ms("fredholm.logdet"),
            "expansions.corr_ms": ms("expansions.corr"),
            "expansions.term_calls": calls("expansions.term"),
            "expansions.term_ms": ms("expansions.term"),
            "expansions.oddff_calls": calls("expansions.oddff"),
            "expansions.oddff_ms": ms("expansions.oddff"),
            "expansions.direct_ms": ms("expansions.direct"),
            "expansions.identity_ms": ms("expansions.identity"),
            **{f"verify.{s}_ms": ms(f"verify.{s}") for s in SUITES},
            "cli.self_ms": ms("cli.self"),
            "trace.overhead_pct": overhead_pct,
        }
        return {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()}

    def module_shares(self) -> dict:
        """Share of all traced self time per module, in percent."""
        by_module = defaultdict(float)
        for label, seconds in self.self_s.items():
            by_module[label.split(".", 1)[0]] += seconds
        total = sum(by_module.values()) or 1.0
        return {mod: 100.0 * s / total for mod, s in sorted(by_module.items(), key=lambda kv: -kv[1])}

    def inclusive_shares(self, pass_s: float) -> dict:
        """Time inside each module's outermost spans, in percent of the traced pass.

        A span counts when no ancestor belongs to the same module, so a
        suite that delegates to other layers is charged its whole duration.
        """
        modules = [name.split(".", 1)[0] for name in self.names]
        bits = {mod: 1 << i for i, mod in enumerate(sorted(set(modules)))}
        name_bit = [bits[mod] for mod in modules]
        masks = array("q")   # modules on each span's ancestor chain
        inside = defaultdict(float)
        for i, (nid, parent) in enumerate(zip(self.span_name, self.span_parent)):
            mask = 0 if parent < 0 else masks[parent] | name_bit[self.span_name[parent]]
            masks.append(mask)
            if not mask & name_bit[nid]:
                inside[modules[nid]] += self.span_end[i] - self.span_start[i]
        return {mod: 100.0 * s / pass_s for mod, s in sorted(inside.items(), key=lambda kv: -kv[1])}

    def write(self, path) -> None:
        """Write the spans as columns; times in microseconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "start_us": [round((t - t0) * 1e6, 1) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6, 1) for t in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
